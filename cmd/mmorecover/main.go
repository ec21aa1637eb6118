// Command mmorecover inspects and recovers a checkpointing engine directory:
// it reports both backup image headers, replays the logical log, and prints
// ΔTrestore / ΔTreplay — the recovery procedure of Section 4.2, runnable by
// hand.
//
// Usage:
//
//	mmorecover -dir /tmp/ka -rows 40000 -cols 13
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/gamestate"
)

func main() {
	var (
		dir     = flag.String("dir", "", "engine directory (required)")
		rows    = flag.Int("rows", 0, "table rows (required)")
		cols    = flag.Int("cols", 13, "table columns")
		objSize = flag.Int("objsize", 512, "atomic object size")
	)
	flag.Parse()
	if *dir == "" || *rows == 0 {
		fmt.Fprintln(os.Stderr, "mmorecover: -dir and -rows are required")
		os.Exit(2)
	}
	table := gamestate.Table{Rows: *rows, Cols: *cols, CellSize: 4, ObjSize: *objSize}
	if err := table.Validate(); err != nil {
		fatal(err)
	}

	// Inspect both images.
	var backups [2]*disk.Backup
	for i, name := range []string{"backup-a.img", "backup-b.img"} {
		dev, err := disk.OpenFile(filepath.Join(*dir, name))
		if err != nil {
			fatal(err)
		}
		defer dev.Close()
		b, err := disk.NewBackup(dev, table.NumObjects(), table.ObjSize)
		if err != nil {
			fatal(err)
		}
		backups[i] = b
		h, err := b.ReadHeader()
		switch {
		case err == disk.ErrNoImage:
			fmt.Printf("%s: no valid image\n", name)
		case err != nil:
			fmt.Printf("%s: %v\n", name, err)
		default:
			fmt.Printf("%s: epoch %d, as of tick %d, complete=%v\n",
				name, h.Epoch, h.AsOfTick, h.Complete)
		}
	}

	// One shard: replay waits for the whole restore, so the two stages'
	// sum printed below is the recovery time.
	eng, err := engine.Open(engine.Options{Table: table, Dir: *dir, Mode: engine.ModeNone, Shards: 1})
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	res := eng.Recovery()
	if res.Restored {
		fmt.Printf("restored image %d (epoch %d) consistent as of tick %d in %v\n",
			res.BackupIndex, res.Epoch, res.AsOfTick, res.RestoreDuration)
	} else {
		fmt.Println("no complete image: state starts zeroed")
	}
	fmt.Printf("replayed %d ticks (%d updates) in %v\n",
		res.ReplayedTicks, res.ReplayedUpdates, res.ReplayDuration)
	fmt.Printf("recovered through tick %d; next tick is %d\n",
		res.NextTick-1, res.NextTick)
	fmt.Printf("ΔTrecovery = ΔTrestore + ΔTreplay = %v\n",
		res.RestoreDuration+res.ReplayDuration)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mmorecover:", err)
	os.Exit(1)
}
