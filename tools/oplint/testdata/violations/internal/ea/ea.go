package ea

import "pea/internal/pea"

// Run references pea.Run twice; the pipeline allows it once.
func Run() error {
	run := pea.Run
	_ = run
	return pea.Run()
}
