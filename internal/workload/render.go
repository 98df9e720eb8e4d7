package workload

import "strconv"

// The generators' decimal renderer. A Kafka consumer hands the engine bytes
// it has already read; the generators stand in for it, so rendering an
// event should cost about what copying it does. Every decimal field goes
// through one table of digit pairs, and an event time — 19 digits in a live
// run — is a cached seconds prefix plus nine nanosecond digits.
//
// Two habits keep the renderers near copy speed, both measured: a field's
// digits are stored as a fixed-size group and the slice then cut to the
// width of the number, so no branch depends on the width (the bytes past the
// cut lie in dst's spare capacity, where the next append writes over them);
// and the renderers append literal text in pieces of at most 16 bytes, which
// the compiler copies with inline moves — a longer piece costs a call to
// memmove.

// digitPairs holds "00" to "99": the digits of x < 100 are
// digitPairs[2x:2x+2].
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendUint appends the decimal digits of x, as strconv.AppendUint(dst, x,
// 10) does. Numbers below 10⁵ — the user ids — take no recursive call.
func appendUint(dst []byte, x uint64) []byte {
	if x < 10_000 {
		return appendSmall(dst, uint32(x))
	}
	q := x / 10_000
	if q < 10 {
		dst = append(dst, byte('0'+q))
	} else {
		dst = appendUint(dst, q)
	}
	return append4(dst, uint32(x-q*10_000))
}

// appendSmall appends the digits of x < 10 000 without leading zeros: all
// four are stored, the leading zeros shifted out to the back, and as many
// kept as x has.
func appendSmall(dst []byte, x uint32) []byte {
	q, r := 2*(x/100), 2*(x%100)
	w := uint32(digitPairs[q]) | uint32(digitPairs[q+1])<<8 | uint32(digitPairs[r])<<16 | uint32(digitPairs[r+1])<<24
	// x-t wraps past 1<<31 exactly when x < t.
	lead := (x-10)>>31 + (x-100)>>31 + (x-1000)>>31
	w >>= 8 * lead
	dst = append(dst, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	return dst[:len(dst)-int(lead)]
}

// append4 appends exactly four digits of x < 10 000, leading zeros kept.
func append4(dst []byte, x uint32) []byte {
	q, r := 2*(x/100), 2*(x%100)
	return append(dst, digitPairs[q], digitPairs[q+1], digitPairs[r], digitPairs[r+1])
}

// eventClock renders event times in nanoseconds. A generator keeps one on
// its stack for one call: times from 10⁹ ns up are the digits of their
// second, cached until the second changes, plus nine nanosecond digits;
// earlier and negative times go to strconv.
type eventClock struct {
	sec    int64    // first nanosecond of the cached second; 0 before one is
	digits [16]byte // digits[:n] render sec / 10⁹
	n      int
}

// appendTime appends the decimal digits of at, as strconv.AppendInt(dst,
// at, 10) does.
func (c *eventClock) appendTime(dst []byte, at int64) []byte {
	const second = 1_000_000_000
	if at < second {
		return strconv.AppendInt(dst, at, 10)
	}
	// Both are non-negative, so the difference cannot overflow; a time
	// before the cached second wraps to a huge value and misses too, and
	// with nothing cached every time misses.
	ns := uint32(at - c.sec)
	if uint64(at-c.sec) >= second {
		s := at / second
		c.sec = s * second
		c.n = len(appendUint(c.digits[:0], uint64(s)))
		ns = uint32(at - c.sec)
	}
	// The prefix is copied as all sixteen bytes of digits, a fixed-size
	// copy, and the nine nanosecond digits follow from its end on.
	dst = append(dst, c.digits[:]...)
	dst = dst[:len(dst)-len(c.digits)+c.n]
	hi, lo := ns/10_000, ns%10_000 // hi < 100 000
	a := hi / 10_000
	b, d := 2*(hi%10_000/100), 2*(hi%100)
	e, f := 2*(lo/100), 2*(lo%100)
	return append(dst, byte('0'+a),
		digitPairs[b], digitPairs[b+1], digitPairs[d], digitPairs[d+1],
		digitPairs[e], digitPairs[e+1], digitPairs[f], digitPairs[f+1])
}

// eventTicks walks the times from + ⌊i·span/n⌋ of a batch's n events, i =
// 0, 1, …, with a quotient and a remainder instead of a 64-bit multiply and
// divide per event.
type eventTicks struct {
	at, step, rem, acc, n int64
}

// newEventTicks starts the walk at from; n must be positive.
func newEventTicks(from, span int64, n int) eventTicks {
	return eventTicks{at: from, step: span / int64(n), rem: span % int64(n), n: int64(n)}
}

// next advances to the following event's time.
func (t *eventTicks) next() {
	t.at += t.step
	t.acc += t.rem
	if t.acc >= t.n {
		t.acc -= t.n
		t.at++
	}
}
