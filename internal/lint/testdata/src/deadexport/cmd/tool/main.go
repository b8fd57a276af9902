// Command tool is the module's second importer of internal/lib.
package main

import "deadexport/internal/lib"

func main() { _ = lib.ToolUse }
