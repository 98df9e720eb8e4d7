//go:build !poisonscratch

package engine

import "drizzle/internal/data"

// Normal builds do not poison anything; see poison_on.go.

func (sc *slotScratch) poison() {}

func poisonRecords([]data.Record) {}
