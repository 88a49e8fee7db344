package vm

// Tests may spell trap reasons; only build files may not.
var wantTrap = "division by zero"
