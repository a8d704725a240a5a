package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/geometry"
)

// TestConcurrentVMLifecycle churns CreateVM/WriteGuest/ReadGuest/DestroyVM
// from parallel goroutines (run under -race via make race-quick). Capacity
// failures under contention are expected — the point is that the lifecycle
// races safely and the allocator accounting balances to zero afterwards.
func TestConcurrentVMLifecycle(t *testing.T) {
	h := bootSiloz(t)
	const workers, iters = 6, 4
	errs := make(chan error, workers*iters*4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("vm-%d-%d", w, i)
				spec := VMSpec{Name: name, Socket: (w + i) % 2, MemoryBytes: 32 * geometry.MiB}
				vm, err := h.CreateVM(kvmProc(), spec)
				if err != nil {
					continue // node pool exhausted by peers; not an error
				}
				data := fillPage(w*iters+i, byte(w+1))[:8*geometry.KiB]
				gpa := uint64(geometry.PageSize2M) - 4*geometry.KiB // page-spanning
				if err := vm.WriteGuest(gpa, data); err != nil {
					errs <- fmt.Errorf("%s write: %w", name, err)
				}
				got := make([]byte, len(data))
				if err := vm.ReadGuest(gpa, got); err != nil {
					errs <- fmt.Errorf("%s read: %w", name, err)
				} else if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("%s round trip mismatch", name)
				}
				if err := h.DestroyVM(name); err != nil {
					errs <- fmt.Errorf("%s destroy: %w", name, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := len(h.VMs()); n != 0 {
		t.Errorf("%d VMs survived the churn", n)
	}
	// Every node's allocator balances: all memory back in the free pools.
	for _, n := range h.Topology().Nodes() {
		a, err := h.Allocator(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		if a.FreeBytes() != a.TotalBytes() || a.UsedBytes() != 0 {
			t.Errorf("node %d accounting unbalanced: free %d of %d, used %d",
				n.ID, a.FreeBytes(), a.TotalBytes(), a.UsedBytes())
		}
	}
	// No stale exclusive ownership.
	for _, n := range h.Topology().Nodes() {
		if owner, owned := h.Registry().OwnerOf(n.ID); owned {
			t.Errorf("node %d still owned by %q", n.ID, owner)
		}
	}
}

// TestConcurrentWriterDuringMigration races a real writer goroutine against
// the pre-copy engine (no GuestStep determinism): the final memory image
// must reflect complete writes only, whichever side of the stop-and-copy
// each landed on.
func TestConcurrentWriterDuringMigration(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "live", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	dest := freeGuestNode(t, h, 0)

	const hotPages = 4
	const chunk = 8 * geometry.KiB
	stop := make(chan struct{})
	done := make(chan error, 1)
	firstPass := make(chan struct{})
	go func() {
		buf := make([]byte, chunk)
		for ver := byte(1); ; ver++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			for p := 0; p < hotPages; p++ {
				for i := range buf {
					buf[i] = ver<<3 | byte(p+1) // never zero
				}
				if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, buf); err != nil {
					done <- err
					return
				}
			}
			if ver == 1 {
				close(firstPass)
			}
		}
	}()
	// Every hot page holds data before the copy starts, however quickly the
	// migration then runs.
	select {
	case <-firstPass:
	case err := <-done:
		t.Fatalf("writer failed: %v", err)
	}

	rep, err := h.MigrateVM(context.Background(), "live", []int{dest.ID}, MigrateOptions{
		StopPages: 1, MaxRounds: 8,
	})
	close(stop)
	if werr := <-done; werr != nil {
		t.Fatalf("writer failed: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesTotal != 32 {
		t.Errorf("pages total = %d", rep.PagesTotal)
	}
	// Each hot page holds exactly one complete write — uniform, nonzero
	// content — and the rest of the page is still zero.
	page := make([]byte, geometry.PageSize2M)
	for p := 0; p < hotPages; p++ {
		if err := vm.ReadGuest(uint64(p)*geometry.PageSize2M, page); err != nil {
			t.Fatal(err)
		}
		v := page[0]
		if v == 0 {
			t.Errorf("hot page %d lost its data", p)
		}
		for i := 1; i < chunk; i++ {
			if page[i] != v {
				t.Fatalf("hot page %d torn at byte %d: %#x vs %#x", p, i, page[i], v)
			}
		}
		if !allZero(page[chunk:]) {
			t.Errorf("hot page %d has stray bytes past the written chunk", p)
		}
	}
	// The guest is on the destination node and still writable.
	if len(vm.Nodes()) != 1 || vm.Nodes()[0].ID != dest.ID {
		t.Fatalf("post-migration nodes = %v", vm.Nodes())
	}
	if err := vm.WriteGuest(10*geometry.PageSize2M, []byte("after")); err != nil {
		t.Fatal(err)
	}
}
