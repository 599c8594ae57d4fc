package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// refTrace holds a stream's reference decisions, computed once per seed by
// serial core.System.Step over exactly the samples the wire will carry.
// Decisions are kept in a compact canonical encoding (see appendDecision);
// every wire decision is encoded the same way and compared byte for byte,
// which compares every field of core.Decision.
type refTrace struct {
	enc []byte
	off []uint32 // decision k is enc[off[k]:off[k+1]]
}

func (r *refTrace) compute(s *stream) error {
	det, err := sim.Detector(sim.Config{Model: s.p.model})
	if err != nil {
		return err
	}
	t := s.samples()
	r.enc = make([]byte, 0, 10*t)
	r.off = make([]uint32, 1, t+1)
	est, u := make([]float64, s.p.n), make([]float64, s.p.m)
	for k := 0; k < t; k++ {
		s.fill(k, est, u)
		d, err := det.Step(est, u)
		if err != nil {
			return fmt.Errorf("reference %s step %d: %w", s.id, k, err)
		}
		r.enc = appendDecision(r.enc, d)
		r.off = append(r.off, uint32(len(r.enc)))
	}
	return nil
}

func (r *refTrace) at(k int) []byte { return r.enc[r.off[k]:r.off[k+1]] }

// appendDecision is the canonical encoding decisions are compared in: Step,
// Window, Deadline, Alarm, Complementary, ComplementaryStep and Dims.
func appendDecision(b []byte, d core.Decision) []byte {
	b = binary.AppendVarint(b, int64(d.Step))
	b = binary.AppendVarint(b, int64(d.Window))
	b = binary.AppendVarint(b, int64(d.Deadline))
	var flags byte
	if d.Alarm {
		flags |= 1
	}
	if d.Complementary {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(d.ComplementaryStep))
	b = binary.AppendUvarint(b, uint64(len(d.Dims)))
	for _, x := range d.Dims {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// checker compares wire decisions against the references and keeps the
// run's sample accounting and decision statistics.
type checker struct {
	scratch    []byte
	attempted  int
	decided    int
	failed     int
	mismatches int
	first      string // first failure or mismatch, for the report

	alarms, complementary, windowSum int
}

// note records one attempted sample's outcome: sample k of stream s got d
// (or err).
func (c *checker) note(s *stream, k int, d core.Decision, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.first == "" {
			c.first = fmt.Sprintf("%s sample %d: %v", s.id, k, err)
		}
		return
	}
	c.decided++
	c.scratch = appendDecision(c.scratch[:0], d)
	if !bytes.Equal(c.scratch, s.ref.at(k)) {
		c.mismatches++
		if c.first == "" {
			c.first = fmt.Sprintf("%s sample %d: wire decision %v differs from the serial reference", s.id, k, d)
		}
	}
	if d.Alarm {
		c.alarms++
	}
	if d.Complementary {
		c.complementary++
	}
	c.windowSum += d.Window
}

func (c *checker) ok() bool { return c.failed == 0 && c.mismatches == 0 }
