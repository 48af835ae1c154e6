package types

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrIntegerOverflow is the error integer arithmetic and integer SUM
// return when a result does not fit int64.
var ErrIntegerOverflow = errors.New("types: integer overflow")

// IntSum is an exact running sum of int64 values, held in 128-bit two's
// complement so an intermediate total outside the int64 range does not
// wrap: [MaxInt64, 1, -1] sums to MaxInt64. Only the final total must
// fit int64 (Int64). The zero value is an empty sum.
type IntSum struct {
	hi int64
	lo uint64
}

// Add adds v to the sum.
func (s *IntSum) Add(v int64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, uint64(v), 0)
	hi, _ := bits.Add64(uint64(s.hi), uint64(v>>63), carry) // v>>63 sign-extends v
	s.hi = int64(hi)
}

// Int64 returns the sum, or ErrIntegerOverflow when it does not fit
// int64.
func (s IntSum) Int64() (int64, error) {
	if s.hi != int64(s.lo)>>63 {
		return 0, fmt.Errorf("%w: sum out of int64 range", ErrIntegerOverflow)
	}
	return int64(s.lo), nil
}
