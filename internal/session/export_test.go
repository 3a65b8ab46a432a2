package session

// SetMaxAdmitted sets the admission bound for a test and returns the
// function that restores it.
func SetMaxAdmitted(n int) (restore func()) {
	old := maxAdmitted
	maxAdmitted = n
	return func() { maxAdmitted = old }
}
