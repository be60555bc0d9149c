package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// DecodeMSR parses a trace in the MSR Cambridge / SNIA IOTTA block
// I/O format — the repository family the paper's enterprise workloads
// come from:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp is in Windows filetime units (100 ns ticks); Offset and
// Size are bytes. Byte offsets are converted to page-granular requests
// (pageSize bytes per page, typically 4096): the LPN is the offset's
// page number and the page count covers [Offset, Offset+Size). The
// first record's timestamp becomes time zero; a record stamped before
// it, or too long after it to count in int64 nanoseconds, is an error.
func DecodeMSR(r io.Reader, pageSize units.Bytes) ([]Request, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("trace: page size %d must be positive", pageSize)
	}
	var out []Request
	var t0 int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) < 6 {
			return nil, fmt.Errorf("trace: msr line %d: want >= 6 fields, got %d", lineNo, len(f))
		}
		ts, err := strconv.ParseInt(strings.TrimSpace(f[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: timestamp: %v", lineNo, err)
		}
		op, err := ParseOp(f[3])
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: %v", lineNo, err)
		}
		offset, err := strconv.ParseInt(strings.TrimSpace(f[4]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: offset: %v", lineNo, err)
		}
		size, err := strconv.ParseInt(strings.TrimSpace(f[5]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: size: %v", lineNo, err)
		}
		if offset < 0 || size <= 0 || offset > math.MaxInt64-size {
			return nil, fmt.Errorf("trace: msr line %d: bad extent [%d,+%d)", lineNo, offset, size)
		}
		if len(out) == 0 {
			t0 = ts
		}
		if ts < t0 {
			return nil, fmt.Errorf("trace: msr line %d: timestamp %d precedes the first record's %d", lineNo, ts, t0)
		}
		// ts >= t0, so the unsigned difference is exact.
		if uint64(ts-t0) > math.MaxInt64/100 {
			return nil, fmt.Errorf("trace: msr line %d: timestamp %d overflows the arrival time", lineNo, ts)
		}
		firstPage := offset / pageSize.Int64()
		lastPage := (offset + size - 1) / pageSize.Int64()
		req := Request{
			Arrival: simx.Time((ts - t0) * 100), // filetime ticks -> ns
			Op:      op,
			LPN:     firstPage,
			Pages:   units.Pages(lastPage - firstPage + 1),
		}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("trace: msr line %d: %w", lineNo, err)
		}
		out = append(out, req)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
