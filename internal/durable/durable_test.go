package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type record struct {
	Step    int
	Weights map[string][]float64
}

var (
	errBadHeader = errors.New("bad header")
	errCorrupt   = errors.New("corrupt")
	testFormat   = Format{Magic: "TEST-RECORD\x01", BadHeader: errBadHeader, Corrupt: errCorrupt}
)

func encode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testFormat.Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := record{Step: 7, Weights: map[string][]float64{"w": {1.5, -2, 3e-9}}}
	var got record
	if err := testFormat.Decode(bytes.NewReader(encode(t, want)), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestDecodeRejects(t *testing.T) {
	valid := encode(t, record{Step: 3, Weights: map[string][]float64{"w": {1, 2, 3}}})
	body := len(testFormat.Magic) + 8
	mutate := func(f func([]byte) []byte) []byte { return f(bytes.Clone(valid)) }
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0x01; return b }), errBadHeader},
		{"short header", valid[:len(testFormat.Magic)-1], errBadHeader},
		{"flipped body byte", mutate(func(b []byte) []byte { b[body+4] ^= 0x40; return b }), errCorrupt},
		{"truncated length", valid[:body-3], errCorrupt},
		{"truncated body", valid[:len(valid)/2], errCorrupt},
		{"truncated trailer", valid[:len(valid)-1], errCorrupt},
		{"trailing byte", append(bytes.Clone(valid), 0), errCorrupt},
		{"zero length", mutate(func(b []byte) []byte { clear(b[len(testFormat.Magic):body]); return b }), errCorrupt},
	}
	for _, tc := range cases {
		var r record
		if err := testFormat.Decode(bytes.NewReader(tc.data), &r); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestWriteFileRotation(t *testing.T) {
	for keep := 1; keep <= 3; keep++ {
		path := filepath.Join(t.TempDir(), "state")
		for gen := 1; gen <= 4; gen++ {
			if err := WriteFile(path, keep, false, func(w io.Writer) error {
				return testFormat.Encode(w, record{Step: gen})
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Generation i holds the (4-i)-th write; nothing older than keep.
		for i := 0; i < keep+1; i++ {
			f, err := os.Open(Entry(path, i))
			if i == keep {
				if err == nil {
					f.Close()
					t.Errorf("keep=%d: %s exists", keep, Entry(path, i))
				}
				continue
			}
			if err != nil {
				t.Fatalf("keep=%d: %v", keep, err)
			}
			var r record
			err = testFormat.Decode(f, &r)
			f.Close()
			if err != nil || r.Step != 4-i {
				t.Errorf("keep=%d: %s holds step %d (%v), want %d", keep, Entry(path, i), r.Step, err, 4-i)
			}
		}
	}
	if got := Entry("s", 0) + "," + Entry("s", 1) + "," + Entry("s", 2); got != "s,s.1,s.2" {
		t.Errorf("entry names %q", got)
	}
}

// TestWriteFileFailureKeepsOldFile is the crash-safety guarantee: a save
// whose writer fails leaves the live file byte-identical and no temp
// file behind.
func TestWriteFileFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := WriteFile(path, 1, false, func(w io.Writer) error {
		_, err := w.Write([]byte("good checkpoint"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFile(path, 1, false, func(w io.Writer) error {
		w.Write([]byte("half a chec"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the writer's error", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "good checkpoint" {
		t.Fatalf("live file after failed save: %q, %v", b, err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestWriteFileTorn checks the fault hook leaves a record Decode rejects.
func TestWriteFileTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := WriteFile(path, 1, true, func(w io.Writer) error {
		return testFormat.Encode(w, record{Step: 1, Weights: map[string][]float64{"w": make([]float64, 64)}})
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var r record
	if err := testFormat.Decode(f, &r); !errors.Is(err, errCorrupt) {
		t.Fatalf("torn file: got %v, want the corrupt error", err)
	}
}
