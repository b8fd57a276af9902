// Package deadexport is the root of a miniature module for the
// dead-export analyzer: it and cmd/tool are the only importers of
// internal/lib.
package deadexport

import "deadexport/internal/lib"

// Use reaches the live half of lib from outside the package.
func Use() {
	lib.Live()
	lib.T{}.Used()
	var r lib.Runner = lib.Impl{}
	r.Run()
}
