package broker

import "os"

func NewStore(dir string) {
	os.ReadDir(dir)
	os.ReadDir(dir)
}

func refreshLocked() {}
