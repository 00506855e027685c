package resilience

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestGateAdmitsAndReleases(t *testing.T) {
	g := NewGate(100, 2)
	rel1, err := g.Acquire(60)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := g.Acquire(30)
	if err != nil {
		t.Fatal(err)
	}
	// Third request exceeds maxReqs.
	if _, err := g.Acquire(1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third acquire = %v, want ErrSaturated", err)
	}
	rel2()
	// Byte budget: 60 held, 50 more would exceed 100.
	if _, err := g.Acquire(50); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over-bytes acquire = %v, want ErrSaturated", err)
	}
	rel3, err := g.Acquire(40)
	if err != nil {
		t.Fatalf("within-budget acquire = %v", err)
	}
	reqs, bts, shed := g.Pressure()
	if reqs != 2 || bts != 100 || shed != 2 {
		t.Errorf("pressure = %d reqs %d bytes %d shed, want 2/100/2", reqs, bts, shed)
	}
	if !g.Saturated() {
		t.Error("gate at byte budget should report saturated")
	}
	rel1()
	rel3()
	if g.Saturated() {
		t.Error("drained gate should not be saturated")
	}
	if reqs, bts, _ := g.Pressure(); reqs != 0 || bts != 0 {
		t.Errorf("drained pressure = %d reqs %d bytes, want 0/0", reqs, bts)
	}
}

func TestGateUnboundedAxes(t *testing.T) {
	g := NewGate(0, 0)
	var rels []func()
	for i := 0; i < 100; i++ {
		rel, err := g.Acquire(1 << 30)
		if err != nil {
			t.Fatalf("unbounded gate refused acquire %d: %v", i, err)
		}
		rels = append(rels, rel)
	}
	if g.Saturated() {
		t.Error("unbounded gate can never saturate")
	}
	for _, rel := range rels {
		rel()
	}
	// Negative reservations clamp to zero instead of freeing budget.
	g2 := NewGate(10, 0)
	rel, err := g2.Acquire(-5)
	if err != nil {
		t.Fatal(err)
	}
	if _, bts, _ := g2.Pressure(); bts != 0 {
		t.Errorf("negative reservation held %d bytes", bts)
	}
	rel()
}

func TestGateConcurrent(t *testing.T) {
	g := NewGate(0, 8)
	var wg sync.WaitGroup
	var admitted, shed sync.Map
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, err := g.Acquire(1)
			if err != nil {
				shed.Store(i, true)
				return
			}
			admitted.Store(i, true)
			time.Sleep(time.Millisecond)
			rel()
		}(i)
	}
	wg.Wait()
	if reqs, bts, _ := g.Pressure(); reqs != 0 || bts != 0 {
		t.Errorf("pressure after drain = %d reqs %d bytes", reqs, bts)
	}
}

func TestBackoffScheduleGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Mult: 2, Jitter: 0}
	var got []time.Duration
	for i := 0; i < 6; i++ {
		got = append(got, b.Next())
	}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delay %d = %v, want %v", i, got[i], want[i])
		}
	}
	if b.attempt != 6 {
		t.Errorf("attempt = %d, want 6", b.attempt)
	}
	b.Reset()
	if d := b.Next(); d != 100*time.Millisecond {
		t.Errorf("post-reset delay = %v, want 100ms", d)
	}
}

func TestBackoffJitterDeterministicPerSeed(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		b := NewBackoff(seed)
		b.Base, b.Max, b.Mult, b.Jitter = 100*time.Millisecond, 10*time.Second, 2, 0.2
		var out []time.Duration
		for i := 0; i < 5; i++ {
			out = append(out, b.Next())
		}
		return out
	}
	a1, a2, b1 := delays(7), delays(7), delays(8)
	same, diff := true, false
	for i := range a1 {
		if a1[i] != a2[i] {
			same = false
		}
		if a1[i] != b1[i] {
			diff = true
		}
		lo := time.Duration(float64(100*time.Millisecond) * 0.79 * pow2(i))
		hi := time.Duration(float64(100*time.Millisecond) * 1.21 * pow2(i))
		if a1[i] < lo || a1[i] > hi {
			t.Errorf("delay %d = %v outside jitter band [%v, %v]", i, a1[i], lo, hi)
		}
	}
	if !same {
		t.Error("same seed produced different schedules")
	}
	if !diff {
		t.Error("different seeds produced identical schedules")
	}
	// Defaults kick in for a zero-value schedule.
	var z Backoff
	if d := z.Next(); d < 80*time.Millisecond || d > 120*time.Millisecond {
		t.Errorf("zero-value first delay = %v, want ~100ms", d)
	}
}

func pow2(i int) float64 {
	f := 1.0
	for ; i > 0; i-- {
		f *= 2
	}
	return f
}

func TestFaultWriterTear(t *testing.T) {
	var buf bytes.Buffer
	fw := &FaultWriter{W: &buf, Mode: TearAt, Off: 10}
	for _, chunk := range []string{"0123", "456789abcd", "efgh"} {
		n, err := fw.Write([]byte(chunk))
		if err != nil || n != len(chunk) {
			t.Fatalf("torn write reported n=%d err=%v, want silent success", n, err)
		}
	}
	if got := buf.String(); got != "0123456789" {
		t.Errorf("persisted %q, want first 10 bytes only", got)
	}
}

func TestFaultWriterFail(t *testing.T) {
	var buf bytes.Buffer
	fw := &FaultWriter{W: &buf, Mode: FailAt, Off: 6}
	if n, err := fw.Write([]byte("0123")); n != 4 || err != nil {
		t.Fatalf("pre-fault write n=%d err=%v", n, err)
	}
	_, err := fw.Write([]byte("456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("fault write err = %v, want ErrInjected", err)
	}
	if got := buf.String(); got != "012345" {
		t.Errorf("persisted %q, want bytes before the fault", got)
	}
	// Further writes keep failing (offset already past).
	if _, err := fw.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("post-fault write err = %v, want ErrInjected", err)
	}
}

func TestFaultWriterFlip(t *testing.T) {
	var buf bytes.Buffer
	fw := &FaultWriter{W: &buf, Mode: FlipAt, Off: 5}
	for _, chunk := range []string{"0123", "4567"} {
		if _, err := fw.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	want := []byte("01234567")
	want[5] ^= 1
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("persisted %q, want %q (bit flipped at 5)", got, want)
	}
}

func TestFaultFSArming(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)

	// Unarmed: passthrough round trip.
	f, err := ffs.CreateTemp(dir, "plain*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	name := f.Name()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(name, name+".done"); err != nil {
		t.Fatal(err)
	}
	rc, err := ffs.Open(name + ".done")
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if err := ffs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Remove(name + ".done"); err != nil {
		t.Fatal(err)
	}

	// Armed write fault: one-shot ENOSPC.
	ffs.Arm(FailAt, 3)
	f2, err := ffs.CreateTemp(dir, "fault*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write([]byte("abcdef")); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed write err = %v, want ErrInjected", err)
	}
	f2.Close()
	f3, err := ffs.CreateTemp(dir, "after*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f3.Write([]byte("abcdef")); err != nil {
		t.Errorf("fault was not one-shot: %v", err)
	}
	f3.Close()

	// Armed rename fault.
	ffs.ArmRenameFailure()
	if err := ffs.Rename(f3.Name(), f3.Name()+".x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed rename err = %v, want ErrInjected", err)
	}
	if err := ffs.Rename(f3.Name(), f3.Name()+".x"); err != nil {
		t.Errorf("rename fault was not one-shot: %v", err)
	}

	// Armed create fault.
	ffs.ArmCreateFailure()
	if _, err := ffs.CreateTemp(dir, "nope*"); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed create err = %v, want ErrInjected", err)
	}
}
