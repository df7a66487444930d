//go:build !unix

package store

import (
	"errors"
	"io/fs"
	"os"
)

// flush fsyncs every complete entry file where the platform has no
// whole-filesystem flush. An entry that disappears mid-walk (evicted or
// dropped by another handle) needs no flush.
func (s *Store) flush() error {
	var first error
	s.walkEntries(func(path string, _ fs.FileInfo) {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err == nil {
			err = f.Sync()
			f.Close()
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
	})
	return first
}
