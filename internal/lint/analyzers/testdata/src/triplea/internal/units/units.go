// Package units is a miniature stand-in for the repository's real
// internal/units, giving fixtures the quantity types, unit constants,
// and named helpers the units analyzer keys on. As a defining package
// it converts its own types freely; only the simx.Time rules apply.
package units

import "triplea/internal/simx"

type Bytes int64

type Pages int64

type Blocks int

type Lanes int

type BytesPerSec int64

const (
	Byte Bytes = 1
	KiB        = 1024 * Byte
	MiB        = 1024 * KiB

	Page Pages = 1

	Block Blocks = 1

	Lane Lanes = 1

	BytePerSec BytesPerSec = 1
	MBps                   = 1_000_000 * BytePerSec
)

func (b Bytes) Int64() int64 { return int64(b) }
func (b Bytes) Int() int     { return int(b) }
func (n Pages) Int64() int64 { return int64(n) }
func (n Pages) Int() int     { return int(n) }
func (n Blocks) Int() int    { return int(n) }
func (n Lanes) Int() int     { return int(n) }

func (r BytesPerSec) Int64() int64 { return int64(r) }

func PagesToBytes(n Pages, pageSize Bytes) Bytes {
	return Bytes(int64(n) * int64(pageSize))
}

func BytesToPages(b Bytes, pageSize Bytes) Pages {
	return Pages(int64(b) / int64(pageSize))
}

func TransferTime(n Bytes, bw BytesPerSec) simx.Time {
	bps := int64(bw)
	return simx.Time((int64(n)*1_000_000_000 + bps - 1) / bps)
}

func ScaleByPages(per simx.Time, n Pages) simx.Time {
	return per * simx.Time(n)
}

// settle is the one finding here: a unit-less simulated time.
var settle simx.Time = 500 // want `bare numeric literal used as simx\.Time in variable declaration`
