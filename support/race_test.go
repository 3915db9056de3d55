//go:build race

package support_test

func init() { raceBuild = true }
