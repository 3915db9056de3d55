package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the child if this process dies without
// running its own clean-up (SIGKILL from a caller's timeout).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
