package engine

import (
	"errors"
	"fmt"
)

// ErrClosed is reported (wrapped) by every entry point of an Engine
// after Close; test with errors.Is.
var ErrClosed = errors.New("engine: closed")

// ErrQueueFull is the sentinel matched by errors.Is against an
// *AdmissionError: the engine's in-flight compile slots and its
// admission queue are both full, so the request was rejected without
// doing any work. Callers that want the numbers use errors.As with
// *AdmissionError.
var ErrQueueFull = errors.New("engine: admission queue full")

// AdmissionError reports that a compile request was turned away by the
// engine's admission control. It satisfies errors.Is(err, ErrQueueFull)
// and errors.As(err, **AdmissionError), mirroring how budget exhaustion
// satisfies both errors.As(err, **budget.ExceededError) and — through
// the bounded wrappers — errors.Is(err, automata.ErrStateLimit).
type AdmissionError struct {
	// InFlight is the number of compiles running when the request was
	// rejected; Limit is the configured cap; Queued/QueueLimit describe
	// the wait queue.
	InFlight, Limit, Queued, QueueLimit int
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("engine: admission queue full: %d/%d compiles in flight, %d/%d queued",
		e.InFlight, e.Limit, e.Queued, e.QueueLimit)
}

// Is makes errors.Is(err, ErrQueueFull) match any *AdmissionError, so
// the common "shed load" branch needs no type assertion.
func (e *AdmissionError) Is(target error) bool { return target == ErrQueueFull }

// ParseError reports a request whose concrete syntax (Request.Query /
// Views) does not parse into an instance: the client's fault, never
// the engine's. Its message is the parser's, verbatim; errors.As with
// *ParseError lets a serving layer map it to a bad-request status.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return e.Err.Error() }

func (e *ParseError) Unwrap() error { return e.Err }
