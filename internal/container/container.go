// Package container is the header every byte format of this repository opens
// with — a four-byte magic and a u64 version, little-endian — and the typed
// error a reader returns when the header names another format, or another
// version of its own. It sits below every package that writes a format
// (secmem's save stream, ckpt's stream, proof's PROOF body), so all of them
// fail the same way on input from before a format moved.
package container

import (
	"encoding/binary"
	"fmt"
)

// HeaderBytes is the length of the header: a four-byte magic and a u64
// version.
const HeaderBytes = 12

// VersionError reports input whose header names another container, or another
// version of the one expected: nothing after the header can be read, so
// nothing was. Input written before a format's version moved fails with it,
// never with an integrity error.
type VersionError struct {
	// Magic and Version are what the input's header says.
	Magic   string
	Version uint64
	// Want and WantVersion are what the reader reads.
	Want        string
	WantVersion uint64
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("container: input is %q version %d, this build reads %q version %d", e.Magic, e.Version, e.Want, e.WantVersion)
}

// AppendHeader appends a container header: magic, then the version.
func AppendHeader(buf []byte, magic string, version uint64) []byte {
	return binary.LittleEndian.AppendUint64(append(buf, magic...), version)
}

// CheckHeader checks HeaderBytes of input against the container expected and
// returns a *VersionError if they name anything else.
func CheckHeader(head []byte, magic string, version uint64) error {
	if got, v := string(head[:len(magic)]), binary.LittleEndian.Uint64(head[len(magic):]); got != magic || v != version {
		return &VersionError{Magic: got, Version: v, Want: magic, WantVersion: version}
	}
	return nil
}
