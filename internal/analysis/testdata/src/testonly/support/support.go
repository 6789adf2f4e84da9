// Fixture: a test-support package. Only lib_test.go imports it, so the
// check skips it although nothing calls Unused outside tests.
package support

func Unused() int { return 7 }
