//go:build race

package pie_test

func init() { raceBuild = true }
