//go:build unix

package store

import "syscall"

// flush writes every dirty buffer of every mounted filesystem to disk
// with sync(2), which covers entry data, shard directories and renames
// alike in one call. POSIX declares sync(2) void: it cannot fail, so
// there is no error to report where the syscall package returns one.
func (s *Store) flush() error {
	syscall.Sync()
	return nil
}
