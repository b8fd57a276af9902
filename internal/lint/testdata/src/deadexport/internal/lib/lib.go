// Package lib declares one of each exported shape the dead-export
// analyzer must judge.
package lib

// Live is called from the module root.
func Live() { SelfUsed() }

// SelfUsed is used only inside its own package, which counts.
func SelfUsed() {}

// ToolUse is read from cmd/tool.
var ToolUse = 1

// Dead has no use anywhere.
func Dead() {} // want `exported Dead has no non-test use in the module`

// DeadConst has no use anywhere.
const DeadConst = 3 // want `exported DeadConst has no non-test use in the module`

// TestOnly is used by lib_test.go alone, which does not count.
func TestOnly() {} // want `exported TestOnly has no non-test use in the module`

// T carries one live and one dead method. Fields are out of scope.
type T struct{ Unread int }

// Used is called from the module root.
func (T) Used() {}

// DeadMethod has no use anywhere.
func (*T) DeadMethod() {} // want `exported \(\*T\)\.DeadMethod has no non-test use in the module`

// Runner is called through its interface method in the module root.
type Runner interface{ Run() }

// Impl is only ever reached through Runner.
type Impl struct{}

// Run implements Runner, so the interface call keeps it live.
func (Impl) Run() {}

// hidden is unexported, so its exported methods are out of scope.
type hidden struct{}

// Exported is never called.
func (hidden) Exported() {}

// Allowed has no use but carries a justification.
//
//hotnoc:allow deadexport kept for the fixture's suppression case
func Allowed() {}
