package repro_test

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"repro"
)

// ExampleOpenEngine makes per-tick game state durable with the
// checkpointing engine, then crash-recovers it by reopening the directory:
// the newest complete image is restored and the logical log replayed to the
// exact crash tick.
func ExampleOpenEngine() {
	dir, err := os.MkdirTemp("", "engine")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 10,000 game objects of eight 4-byte attributes, checkpointed in
	// 512-byte atomic objects (disk sectors).
	table := repro.Table{Rows: 10_000, Cols: 8, CellSize: 4, ObjSize: 512}
	// Copy-on-Update is the paper's recommended method: dirty objects only,
	// pre-image copies on first update, a double backup on disk. With
	// SyncEveryTick each tick is durable before ApplyTick returns.
	opts := repro.EngineOptions{Table: table, Dir: dir, Mode: repro.ModeCopyOnUpdate, SyncEveryTick: true}
	eng, err := repro.OpenEngine(opts)
	if err != nil {
		log.Fatal(err)
	}
	// The simulation loop: one ApplyTick per game tick. Object t's attribute
	// 0 records tick t; object 500's attribute 1 is rewritten every tick.
	const ticks = 100
	for tick := 0; tick < ticks; tick++ {
		batch := []repro.Update{
			{Cell: table.Cell(tick, 0), Value: uint32(tick)},
			{Cell: table.Cell(500, 1), Value: uint32(tick * 7)},
		}
		if err := eng.ApplyTick(batch); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}

	eng, err = repro.OpenEngine(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	rec := eng.Recovery()
	intact := 0
	for tick := 0; tick < ticks; tick++ {
		if eng.Store().Cell(table.Cell(tick, 0)) == uint32(tick) {
			intact++
		}
	}
	fmt.Println("next tick:", eng.NextTick())
	fmt.Println("image plus replay reach it:", rec.AsOfTick+uint64(rec.ReplayedTicks)+1 == rec.NextTick)
	fmt.Printf("attribute 0 of objects 0-%d intact: %d of %d\n", ticks-1, intact, ticks)
	fmt.Println("object 500 attribute 1:", eng.Store().Cell(table.Cell(500, 1)))
	// Output:
	// next tick: 100
	// image plus replay reach it: true
	// attribute 0 of objects 0-99 intact: 100 of 100
	// object 500 attribute 1: 693
}

// ExampleSimulateAll uses the simulator the way the paper's evaluation does:
// to choose a checkpoint recovery strategy for a game design before
// building it. All six algorithms run over one synthetic trace per expected
// update rate, and the selection rule picks among them: respect the
// half-tick latency limit first, then prefer the lowest recovery time, then
// the lowest overhead.
func ExampleSimulateAll() {
	// A tenth of the paper's state and hardware: 100,000 rows of ten 4-byte
	// cells, memory and disk bandwidth divided by 10.
	cfg := repro.DefaultSimConfig()
	cfg.Table.Rows = 100_000
	cfg.Params.MemBandwidth /= 10
	cfg.Params.DiskBandwidth /= 10
	limit := cfg.Params.TickLen() / 2

	for _, scenario := range []struct {
		name    string
		updates int
	}{
		{"overworld", 400},
		{"battle", 8_000},
	} {
		src, err := repro.NewZipfianTrace(repro.ZipfianTraceConfig{
			Table:          cfg.Table,
			UpdatesPerTick: scenario.updates,
			Ticks:          100,
			Skew:           0.8,
			Seed:           42,
		})
		if err != nil {
			log.Fatal(err)
		}
		results, err := repro.SimulateAll(repro.Methods(), cfg, src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s, %d updates/tick: %d methods\n", scenario.name, scenario.updates, len(results))
		var best *repro.SimResult
		for _, r := range results {
			within := r.MaxOverhead <= limit
			fmt.Printf("  %-28s within the latency limit: %v\n", r.Method, within)
			if !within {
				continue
			}
			if best == nil ||
				r.RecoveryTime < best.RecoveryTime-1e-9 ||
				(r.RecoveryTime < best.RecoveryTime+1e-9 && r.AvgOverhead < best.AvgOverhead) {
				best = r
			}
		}
		if best == nil {
			fmt.Println("  pick: none; the paper's rule is Naive-Snapshot plus latency masking")
			continue
		}
		fmt.Println("  pick:", best.Method)
	}
	// Output:
	// overworld, 400 updates/tick: 6 methods
	//   Naive-Snapshot               within the latency limit: false
	//   Dribble-and-Copy-on-Update   within the latency limit: true
	//   Atomic-Copy-Dirty-Objects    within the latency limit: false
	//   Partial-Redo                 within the latency limit: true
	//   Copy-on-Update               within the latency limit: true
	//   Copy-on-Update-Partial-Redo  within the latency limit: true
	//   pick: Copy-on-Update
	// battle, 8000 updates/tick: 6 methods
	//   Naive-Snapshot               within the latency limit: false
	//   Dribble-and-Copy-on-Update   within the latency limit: true
	//   Atomic-Copy-Dirty-Objects    within the latency limit: false
	//   Partial-Redo                 within the latency limit: false
	//   Copy-on-Update               within the latency limit: true
	//   Copy-on-Update-Partial-Redo  within the latency limit: true
	//   pick: Dribble-and-Copy-on-Update
}

// ExampleRecoverEngine shows the double backup surviving a destroyed
// checkpoint image: the newest image is smashed on disk, and recovery
// through the sharded restore ∥ replay pipeline falls back to the older
// complete image and replays more of the logical log, losing no update.
func ExampleRecoverEngine() {
	dir, err := os.MkdirTemp("", "failover")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	table := repro.Table{Rows: 4_096, Cols: 8, CellSize: 4, ObjSize: 512}
	opts := repro.EngineOptions{Table: table, Dir: dir, Mode: repro.ModeCopyOnUpdate, SyncEveryTick: true}
	eng, err := repro.OpenEngine(opts)
	if err != nil {
		log.Fatal(err)
	}
	// A deterministic workload, with a model of the state it leaves.
	const ticks = 200
	want := make([]uint32, table.NumCells())
	for tick := 0; tick < ticks; tick++ {
		batch := []repro.Update{
			{Cell: uint32(tick % table.NumCells()), Value: uint32(tick)*2 + 1},
			{Cell: uint32((tick * 31) % table.NumCells()), Value: uint32(tick) * 3},
		}
		for _, u := range batch {
			want[u.Cell] = u.Value
		}
		if err := eng.ApplyTick(batch); err != nil {
			log.Fatal(err)
		}
		// Wait for an image of the second-to-last tick. The writer is then
		// idle, so the last tick starts the newest image, which Close
		// completes.
		if tick == ticks-2 {
			if _, err := eng.CheckpointAsOf(uint64(tick)); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	images := eng.Stats().Checkpoints
	newest := images[len(images)-1]
	fmt.Println("newest image as of tick:", newest.AsOfTick)

	// A fresh directory's images alternate between the two backups, the
	// first to backup-a.img. Smash the newest one's header and some data.
	name := []string{"backup-a.img", "backup-b.img"}[(len(images)-1)%2]
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY, 0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("CORRUPTED-BY-OPERATOR-ERROR!"), 0); err != nil {
		log.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("garbage"), 4096); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	eng, pres, err := repro.RecoverEngine(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	lost := 0
	for c, v := range want {
		if eng.Store().Cell(uint32(c)) != v {
			lost++
		}
	}
	fmt.Println("restored the older image:", pres.Restored && pres.Epoch < newest.Epoch)
	fmt.Println("restored image as of tick:", pres.AsOfTick)
	fmt.Println("replayed ticks:", pres.ReplayedTicks)
	fmt.Println("next tick:", eng.NextTick())
	fmt.Println("cells differing from the workload:", lost)
	// Output:
	// newest image as of tick: 199
	// restored the older image: true
	// restored image as of tick: 198
	// replayed ticks: 1
	// next tick: 200
	// cells differing from the workload: 0
}

// ExampleGame drives the durable engine from the Knights and Archers battle:
// tick 0 persists the deployment, each battle tick's attribute writes are
// applied as one engine tick, and after a restart a fresh battle
// fast-forwarded to the recovered tick matches the store cell for cell.
func ExampleGame() {
	dir, err := os.MkdirTemp("", "battle")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := repro.DefaultGameConfig()
	cfg.Units = 4_000
	cfg.Seed = 7
	g, err := repro.NewGame(cfg)
	if err != nil {
		log.Fatal(err)
	}
	table := g.Table()
	opts := repro.EngineOptions{Table: table, Dir: dir, Mode: repro.ModeCopyOnUpdate, SyncEveryTick: true}
	eng, err := repro.OpenEngine(opts)
	if err != nil {
		log.Fatal(err)
	}
	// Tick 0 is the deployment, so cells no battle tick touches are durable
	// too. Battle tick i is then engine tick i.
	batch := make([]repro.Update, 0, table.NumCells())
	for c := 0; c < table.NumCells(); c++ {
		v := g.Attr(c/table.Cols, c%table.Cols)
		batch = append(batch, repro.Update{Cell: uint32(c), Value: math.Float32bits(v)})
	}
	if err := eng.ApplyTick(batch); err != nil {
		log.Fatal(err)
	}
	g.SetRecorder(repro.GameRecorderFunc(func(cell uint32, v float32) {
		batch = append(batch, repro.Update{Cell: cell, Value: math.Float32bits(v)})
	}))
	const ticks = 60
	for i := 0; i < ticks; i++ {
		batch = batch[:0]
		g.Step()
		if err := eng.ApplyTick(batch); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}

	eng, err = repro.OpenEngine(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	// The battle is deterministic in its seed: replaying it to the
	// recovered tick must reproduce the recovered state.
	replay, err := repro.NewGame(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for uint64(replay.TickIndex())+1 < eng.NextTick() {
		replay.Step()
	}
	differ := 0
	for c := 0; c < table.NumCells(); c++ {
		v := replay.Attr(c/table.Cols, c%table.Cols)
		if eng.Store().Cell(uint32(c)) != math.Float32bits(v) {
			differ++
		}
	}
	fmt.Println("next tick:", eng.NextTick())
	fmt.Println("battle fast-forwarded to tick:", replay.TickIndex())
	fmt.Println("cells differing from the battle:", differ)
	// Output:
	// next tick: 61
	// battle fast-forwarded to tick: 60
	// cells differing from the battle: 0
}
