package pcie

import "triplea/internal/simx"

// Fault-injection hooks (see internal/fault and docs/fault-injection.md).

// SetRateScale stretches the serialisation of every transfer booked on
// the link after it by s (>1 models a link trained down to fewer lanes
// or a lower generation after errors). Zero restores the nominal rate.
// A transfer's time is fixed when it is booked, the instant its packet
// wins a credit, so transfers booked before the change keep their time
// even if they have not started.
func (l *Link) SetRateScale(s float64) { l.rateScale = s }

// Retrain books a retraining window of d on the link's wire, behind the
// transfers already booked. Everything booked after it (and everything
// submitted during the window) starts when it ends, exactly like a real
// LTSSM Recovery excursion. Flow-control credits are unaffected, so
// nothing is dropped. A negative d panics.
func (l *Link) Retrain(d simx.Time) { l.book(l.eng.Now(), d) }
