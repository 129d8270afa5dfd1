// Package simx is a miniature stand-in for the repository's real
// internal/simx, giving fixtures the Time type, unit constants, and
// the typed Engine/Resource scheduling surface the analyzers key on.
package simx

type Time int64

const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Handler is the typed event receiver.
type Handler interface{ OnEvent(arg uint64) }

// Grantee receives a resource slot.
type Grantee interface{ OnGrant(arg uint64, waited Time) }

type Engine struct{ now Time }

func NewEngine() *Engine { return &Engine{} }

func (e *Engine) Now() Time { return e.now }

func (e *Engine) ScheduleEvent(delay Time, h Handler, arg uint64) {}

func (e *Engine) AtEvent(t Time, h Handler, arg uint64) {}

type Resource struct{}

func (r *Resource) AcquireG(g Grantee, arg uint64) {}

type RNG struct{ state uint64 }

func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

func (r *RNG) Intn(n int) int { return 0 }
