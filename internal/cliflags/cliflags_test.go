package cliflags

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesWriteNamedFiles checks that -cpuprofile and -memprofile
// write exactly the files they name, and that stop runs once.
func TestProfilesWriteNamedFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := c.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	stop()
	stop() // a deferred second call must be harmless
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Errorf("profile directory holds %d entries (%v), want the two named files", len(entries), err)
	}
}

// TestProfilesOffByDefault checks that without the flags nothing starts and
// stop is a no-op.
func TestProfilesOffByDefault(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := c.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

// TestProfilesRejectUnwritablePath checks that a CPU profile path that
// cannot be created is reported up front.
func TestProfilesRejectUnwritablePath(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs)
	bad := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	if err := fs.Parse([]string{"-cpuprofile", bad}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartProfiles(); err == nil {
		t.Fatal("StartProfiles accepted a path in a missing directory")
	}
}
