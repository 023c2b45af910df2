package chopping

// SetBudget lowers the witness search budget until the returned
// function restores it. Tests that call it must not run in parallel.
func SetBudget(n int) (restore func()) {
	old := budget
	budget = n
	return func() { budget = old }
}
