package kernel

import "strconv"

// x86-64 syscall numbers for the request-oriented syscalls the paper
// monitors (Section III), plus the setup-phase calls seen in Fig. 1.
const (
	SysRead         = 0
	SysWrite        = 1
	SysClose        = 3
	SysMmap         = 9
	SysSelect       = 23
	SysNanosleep    = 35
	SysSendto       = 44
	SysRecvfrom     = 45
	SysSendmsg      = 46
	SysRecvmsg      = 47
	SysListen       = 50
	SysAccept       = 43
	SysBind         = 49
	SysSocket       = 41
	SysClone        = 56
	SysFutex        = 202
	SysEpollWait    = 232
	SysEpollCtl     = 233
	SysOpenat       = 257
	SysIoUringEnter = 426
)

// syscallNames maps numbers to names for traces and tools.
var syscallNames = map[int]string{
	SysRead:         "read",
	SysWrite:        "write",
	SysClose:        "close",
	SysMmap:         "mmap",
	SysSelect:       "select",
	SysNanosleep:    "nanosleep",
	SysSendto:       "sendto",
	SysRecvfrom:     "recvfrom",
	SysSendmsg:      "sendmsg",
	SysRecvmsg:      "recvmsg",
	SysListen:       "listen",
	SysAccept:       "accept",
	SysBind:         "bind",
	SysSocket:       "socket",
	SysClone:        "clone",
	SysFutex:        "futex",
	SysEpollWait:    "epoll_wait",
	SysEpollCtl:     "epoll_ctl",
	SysOpenat:       "openat",
	SysIoUringEnter: "io_uring_enter",
}

// SyscallName returns the symbolic name of nr, or "sys_<nr>".
func SyscallName(nr int) string {
	if n, ok := syscallNames[nr]; ok {
		return n
	}
	return "sys_" + strconv.Itoa(nr)
}

// RecvFamily reports whether nr receives request payloads (read/recv*).
func RecvFamily(nr int) bool {
	switch nr {
	case SysRead, SysRecvfrom, SysRecvmsg:
		return true
	}
	return false
}

// SendFamily reports whether nr transmits response payloads (write/send*).
func SendFamily(nr int) bool {
	switch nr {
	case SysWrite, SysSendto, SysSendmsg:
		return true
	}
	return false
}

// PollFamily reports whether nr waits for I/O readiness (epoll/select).
func PollFamily(nr int) bool {
	switch nr {
	case SysEpollWait, SysSelect:
		return true
	}
	return false
}
