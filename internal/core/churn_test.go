package core

import (
	"testing"

	"repro/internal/cache"
)

func layeredCfg(ram, flash int) HostConfig {
	return HostConfig{
		RAMBlocks:   ram,
		FlashBlocks: flash,
		Arch:        Naive,
		RAMPolicy:   PolicyNone,
		FlashPolicy: PolicyNone,
	}
}

// dirtyUp writes n distinct blocks so both tiers hold dirty data under the
// "none" policies.
func dirtyUp(r *rig, n int) {
	for i := 0; i < n; i++ {
		r.writeLat(cache.Key(i + 1))
	}
}

func TestCrashNonPersistentDropsEverything(t *testing.T) {
	r := newRig(t, layeredCfg(8, 32), testTiming())
	dirtyUp(r, 6)
	if r.host.ResidentBlocks() == 0 || r.host.DirtyBlocks() == 0 {
		t.Fatal("setup produced no resident/dirty blocks")
	}
	dropped := r.host.Crash()
	if dropped == 0 {
		t.Fatal("crash dropped nothing")
	}
	if r.host.ResidentBlocks() != 0 || r.host.DirtyBlocks() != 0 {
		t.Fatalf("after crash: %d resident, %d dirty; want empty",
			r.host.ResidentBlocks(), r.host.DirtyBlocks())
	}
}

func TestCrashPersistentKeepsFlash(t *testing.T) {
	cfg := layeredCfg(8, 32)
	cfg.PersistentFlash = true
	// Sync RAM writeback pushes dirty data down into flash, where the
	// "none" flash policy leaves it dirty — crash-surviving state.
	cfg.RAMPolicy = PolicySync
	r := newRig(t, cfg, testTiming())
	dirtyUp(r, 6)
	flashResident := r.host.flash.Len()
	flashDirty := r.host.flash.DirtyLen()
	if flashResident == 0 || flashDirty == 0 {
		t.Fatal("setup left flash empty/clean")
	}
	r.host.Crash()
	if r.host.ram.Len() != 0 {
		t.Fatal("RAM survived the crash")
	}
	if r.host.flash.Len() != flashResident || r.host.flash.DirtyLen() != flashDirty {
		t.Fatalf("persistent flash changed: %d/%d resident, %d/%d dirty",
			r.host.flash.Len(), flashResident, r.host.flash.DirtyLen(), flashDirty)
	}
	// The surviving dirty blocks recover through the existing path.
	done := false
	flushed := r.host.Recover(func() { done = true })
	r.eng.Run()
	if !done || flushed != flashDirty {
		t.Fatalf("recovery flushed %d (done=%v), want %d", flushed, done, flashDirty)
	}
	if r.host.flash.DirtyLen() != 0 {
		t.Fatal("dirty blocks remain after recovery")
	}
}

func TestFlushWritesBackAndDrops(t *testing.T) {
	r := newRig(t, layeredCfg(8, 32), testTiming())
	dirtyUp(r, 6)
	dirty := r.host.DirtyBlocks()
	writesBefore := r.fsrv.Writes()
	done := false
	flushed := r.host.Flush(1, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("flush completion never fired")
	}
	if flushed != dirty {
		t.Fatalf("flushed %d, want %d", flushed, dirty)
	}
	if got := r.fsrv.Writes() - writesBefore; got != uint64(flushed) {
		t.Fatalf("filer saw %d writes, want %d", got, flushed)
	}
	if r.host.ResidentBlocks() != 0 {
		t.Fatalf("%d blocks resident after full flush", r.host.ResidentBlocks())
	}
}

func TestFlushPartialDropKeepsSubsetInvariant(t *testing.T) {
	r := newRig(t, layeredCfg(16, 32), testTiming())
	dirtyUp(r, 12)
	done := false
	r.host.Flush(0.5, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("flush completion never fired")
	}
	if r.host.DirtyBlocks() != 0 {
		t.Fatal("dirty blocks remain after flush")
	}
	if r.host.ResidentBlocks() == 0 {
		t.Fatal("partial flush emptied the caches")
	}
	// Every clean RAM block must still be backed by flash (naive subset).
	for key := cache.Key(1); key <= 12; key++ {
		e := r.host.ram.Peek(key)
		if e != nil && !e.Dirty && r.host.flash.Peek(key) == nil {
			t.Fatalf("clean RAM block %d has no flash backing after drop", key)
		}
	}
}
