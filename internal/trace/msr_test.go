package trace

import (
	"strings"
	"testing"
)

func TestDecodeMSR(t *testing.T) {
	src := strings.Join([]string{
		"# MSR Cambridge style",
		"128166372003061629,usr,0,Read,8192,4096,1231",
		"128166372003062629,usr,0,Write,4096,8192,900",
		"128166372003064629,usr,0,Read,4100,100,50", // sub-page extent
	}, "\n")
	reqs, err := DecodeMSR(strings.NewReader(src), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("%d requests", len(reqs))
	}
	// First record anchors time zero.
	if reqs[0].Arrival != 0 {
		t.Errorf("first arrival = %v", reqs[0].Arrival)
	}
	// 1000 filetime ticks later = 100us.
	if reqs[1].Arrival != 100_000 {
		t.Errorf("second arrival = %v, want 100us", reqs[1].Arrival)
	}
	if reqs[0].Op != Read || reqs[0].LPN != 2 || reqs[0].Pages != 1 {
		t.Errorf("req0 = %+v", reqs[0])
	}
	// 8 KiB at offset 4 KiB spans pages 1-2.
	if reqs[1].Op != Write || reqs[1].LPN != 1 || reqs[1].Pages != 2 {
		t.Errorf("req1 = %+v", reqs[1])
	}
	// A 100-byte extent crossing nothing: one page.
	if reqs[2].LPN != 1 || reqs[2].Pages != 1 {
		t.Errorf("req2 = %+v", reqs[2])
	}
}

func TestDecodeMSRCrossPageExtent(t *testing.T) {
	// 100 bytes starting 50 bytes before a page boundary: two pages.
	src := "1,usr,0,Read,4046,100,1"
	reqs, err := DecodeMSR(strings.NewReader(src), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if reqs[0].LPN != 0 || reqs[0].Pages != 2 {
		t.Errorf("req = %+v", reqs[0])
	}
}

func TestDecodeMSRErrors(t *testing.T) {
	for _, src := range []string{
		"1,usr,0,Read,8192",        // too few fields
		"x,usr,0,Read,8192,4096,1", // bad timestamp
		"1,usr,0,Zap,8192,4096,1",  // bad op
		"1,usr,0,Read,x,4096,1",    // bad offset
		"1,usr,0,Read,8192,x,1",    // bad size
		"1,usr,0,Read,-1,4096,1",   // negative offset
		"1,usr,0,Read,8192,0,1",    // zero size
		// a timestamp earlier than the first record's
		"128166372003061629,usr,0,Read,8192,4096,1\n128166372003061579,usr,0,Read,8192,4096,1",
		// offset+size overflows int64
		"1,usr,0,Read,9223372036854775807,2,1",
		// the arrival in ns overflows int64
		"0,usr,0,Read,8192,4096,1\n184467440737095517,usr,0,Read,8192,4096,1",
	} {
		if _, err := DecodeMSR(strings.NewReader(src), 4096); err == nil {
			t.Errorf("DecodeMSR accepted %q", src)
		}
	}
	if _, err := DecodeMSR(strings.NewReader(""), 0); err == nil {
		t.Error("zero page size accepted")
	}
}

func TestDecodeMSREmpty(t *testing.T) {
	reqs, err := DecodeMSR(strings.NewReader("# only comments\n"), 4096)
	if err != nil || len(reqs) != 0 {
		t.Errorf("reqs=%v err=%v", reqs, err)
	}
}
