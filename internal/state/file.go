package state

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes a snapshot to path atomically: the bytes land in a
// temporary file in the same directory, are fsynced, and replace path with
// one rename — a crash mid-checkpoint leaves either the previous checkpoint
// or the new one, never a torn file. This is the write discipline every
// checkpoint sink (awdserve, awdfleet -checkpoint-out) goes through.
func WriteFile(path string, data []byte) error {
	return writeAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(data); err != nil {
			return fmt.Errorf("state: checkpoint write: %w", err)
		}
		return nil
	})
}

// EncodeFile encodes a snapshot straight into path with WriteFile's
// atomicity: encode runs against an encoder whose sink is the temporary
// file, so the buffer spills into the file at component boundaries (see
// Encoder) and a checkpoint holds about spillThreshold bytes plus the
// component that crosses it, however large the file grows. The bytes are the
// ones encode would have produced into NewEncoder. It returns the file's
// size; if encode or a write fails, path is left as it was and no
// temporary file remains.
func EncodeFile(path string, encode func(*Encoder) error) (int, error) {
	var n int
	err := writeAtomic(path, func(w io.Writer) error {
		// Room for the threshold plus the component that crosses it.
		enc := &Encoder{buf: make([]byte, 0, spillThreshold+spillThreshold/4), w: w}
		if err := encode(enc); err != nil {
			return err
		}
		enc.spill()
		if enc.err != nil {
			return fmt.Errorf("state: checkpoint write: %w", enc.err)
		}
		n = enc.Len()
		return nil
	})
	return n, err
}

// writeAtomic is the one temp-file discipline behind WriteFile and
// EncodeFile: write fills a temporary file in path's directory, which is
// fsynced and renamed over path. On any error the temporary file is
// removed and path is untouched.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".awds-*")
	if err != nil {
		return fmt.Errorf("state: checkpoint write: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if err := write(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("state: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("state: checkpoint close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("state: checkpoint rename: %w", err)
	}
	return nil
}

// ReadFile reads a snapshot file whole. It is a thin wrapper kept for
// symmetry with WriteFile (and as the single place to hang size limits or
// integrity checks later).
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("state: checkpoint read: %w", err)
	}
	return data, nil
}
