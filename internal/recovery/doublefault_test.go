package recovery

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/disk"
)

// TestChooseBackupBothHeadersUnreadable is the double fault: both media
// fail their header reads, so recovery has nothing to stand on. The error
// must be distinguishable — it carries the injected device fault and names
// the first failing backup, never a silent cold start and never a bare
// "no image" that would be indistinguishable from a fresh directory.
func TestChooseBackupBothHeadersUnreadable(t *testing.T) {
	mk := func() *disk.Backup {
		dev := disk.NewMem()
		if err := pBackup(t, dev).WriteHeader(disk.Header{Epoch: 5, AsOfTick: 50, Complete: true}); err != nil {
			t.Fatal(err)
		}
		return pBackup(t, disk.NewReadFault(dev))
	}
	idx, _, _, err := chooseBackup(mk(), mk())
	if err == nil {
		t.Fatal("both headers unreadable but chooseBackup returned nil error")
	}
	if idx != -1 {
		t.Fatalf("both headers unreadable but backup %d was chosen", idx)
	}
	if !errors.Is(err, disk.ErrFaultInjected) {
		t.Fatalf("error %v does not unwrap to the injected device fault", err)
	}
	if !strings.Contains(err.Error(), "backup 0") {
		t.Fatalf("error %v does not name the first failing backup, 0", err)
	}
	// The double fault must never be conflated with "no image": a fresh
	// pair is a clean cold start, not an error.
	if errors.Is(err, disk.ErrNoImage) {
		t.Fatalf("double device fault classified as ErrNoImage: %v", err)
	}
}

// TestChooseBackupClassificationMatrix pins the ErrNoImage-vs-device-error
// distinction across the pairings that matter: "no image" means a clean
// cold start or a plain fallback, a device error only aborts when no
// complete image survives anywhere (TestChooseBackupFailsWhenBothUnusable).
func TestChooseBackupClassificationMatrix(t *testing.T) {
	fresh := func() *disk.Backup { return pBackup(t, disk.NewMem()) }
	complete := func(epoch uint64) *disk.Backup {
		b := pBackup(t, disk.NewMem())
		if err := b.WriteHeader(disk.Header{Epoch: epoch, AsOfTick: epoch * 10, Complete: true}); err != nil {
			t.Fatal(err)
		}
		return b
	}
	sick := func() *disk.Backup {
		dev := disk.NewMem()
		if err := pBackup(t, dev).WriteHeader(disk.Header{Epoch: 9, Complete: true}); err != nil {
			t.Fatal(err)
		}
		return pBackup(t, disk.NewReadFault(dev))
	}

	// Fresh + fresh: ErrNoImage on both classifies as a cold start — no
	// error, no image chosen.
	if idx, _, _, err := chooseBackup(fresh(), fresh()); err != nil || idx != -1 {
		t.Fatalf("fresh pair: idx=%d err=%v, want cold start (-1, nil)", idx, err)
	}
	// Fresh + complete: the lone image wins; the ErrNoImage side is not an
	// error.
	if idx, h, _, err := chooseBackup(fresh(), complete(4)); err != nil || idx != 1 || h.Epoch != 4 {
		t.Fatalf("fresh+complete: idx=%d epoch=%d err=%v, want backup 1 epoch 4", idx, h.Epoch, err)
	}
	// Sick + complete: a device error on one backup degrades to the
	// survivor without surfacing the error, even though the sick backup's
	// image was newer.
	if idx, h, _, err := chooseBackup(sick(), complete(4)); err != nil || idx != 1 || h.Epoch != 4 {
		t.Fatalf("sick+complete: idx=%d epoch=%d err=%v, want backup 1 epoch 4", idx, h.Epoch, err)
	}
}
