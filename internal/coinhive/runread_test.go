package coinhive

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stratum"
)

// gatedReader hands out data in reads of at most chunk bytes, and fails
// the test if it is read while shut: readRun must take only what the
// buffer already holds.
type gatedReader struct {
	t     *testing.T
	data  []byte
	chunk int
	shut  bool
}

func (r *gatedReader) Read(p []byte) (int, error) {
	if r.shut {
		r.t.Fatal("readRun read from the connection")
	}
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.chunk, len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// FuzzReadRun holds readRun to one-at-a-time reads: for any byte stream,
// delivered in reads of any size, the runs concatenated are the commands
// decodeCommand(stratum.ReadRPCLine) yields line by line; readRun never
// reads from the connection; a run holds at most runMax commands, and
// only its last may be other than a submit.
func FuzzReadRun(f *testing.F) {
	submit := `{"id":1,"jsonrpc":"2.0","method":"submit","params":{"id":"t","job_id":"1-1-1-d4","nonce":"0000002a","result":"` +
		strings.Repeat("ab", 32) + `"}}` + "\n"
	keepalive := `{"id":2,"jsonrpc":"2.0","method":"keepalived","params":{"id":"t"}}` + "\n"
	stream := strings.Repeat(submit, 11) + keepalive + strings.Repeat(submit, 3) + "{bad json\n" + submit
	f.Add([]byte(stream), uint16(1<<13))
	f.Add([]byte(stream), uint16(150))
	f.Add([]byte(stream), uint16(1))
	f.Add([]byte(strings.Repeat(submit, 3)+strings.Repeat("x", stratum.MaxRPCLine+10)+"\n"+submit), uint16(1<<13))
	f.Add([]byte(strings.Repeat(submit, 2)+"\r\n\n"+submit[:40]), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		var want []Command
		br := bufio.NewReaderSize(bytes.NewReader(data), stratum.MaxRPCLine)
		for {
			cmd, err := decodeCommand(stratum.ReadRPCLine(br))
			if err != nil {
				break
			}
			want = append(want, cmd)
		}
		var got []Command
		gate := &gatedReader{t: t, data: data, chunk: int(chunk) + 1}
		br = bufio.NewReaderSize(gate, stratum.MaxRPCLine)
		var runBuf [runMax]Command
		for {
			cmd, err := decodeCommand(stratum.ReadRPCLine(br))
			if err != nil {
				break
			}
			gate.shut = true
			run := readRun(br, append(runBuf[:0], cmd))
			gate.shut = false
			if len(run) > runMax {
				t.Fatalf("run of %d, over runMax", len(run))
			}
			for _, c := range run[:len(run)-1] {
				if c.Kind != CmdSubmit {
					t.Fatalf("run continued past a %v command", c.Kind)
				}
			}
			got = append(got, run...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("runs read %d commands, line by line %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
		}
	})
}

// TestRunHelpersAllocFree pins the per-command helpers of the pipelined
// submit path at zero allocations: the buffered-line check readRun makes
// before each read, and verify's lookup of a sum hashed ahead, hit or
// miss.
func TestRunHelpersAllocFree(t *testing.T) {
	br := bufio.NewReaderSize(strings.NewReader("{}\n{"), stratum.MaxRPCLine)
	if _, err := br.Peek(4); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(500, func() { lineBuffered(br) }); allocs != 0 {
		t.Errorf("lineBuffered: %v allocs/op, want 0", allocs)
	}

	var pre prehashed
	for i := 0; i < 3; i++ {
		pre.blobs[i][0] = byte(i)
		pre.lens[i] = 76
		pre.sums[i][0] = byte(i)
	}
	pre.n = 3
	hit, miss := pre.blobs[2][:76], make([]byte, 76)
	miss[0] = 9
	if sum, ok := pre.sum(hit); !ok || sum[0] != 2 {
		t.Fatalf("sum of the third blob: %v %v", sum[0], ok)
	}
	if allocs := testing.AllocsPerRun(500, func() { pre.sum(hit); pre.sum(miss) }); allocs != 0 {
		t.Errorf("prehashed.sum: %v allocs/op, want 0", allocs)
	}
}
