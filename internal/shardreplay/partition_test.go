package shardreplay_test

import (
	"testing"
	"testing/quick"

	"jouppi/internal/memtrace"
	"jouppi/internal/shardreplay"
)

// TestShardOfIsFieldModulo pins the division-free ShardOf against the
// plain definition — the common-field value modulo the shard count —
// for every field width up to 32 bits and any shard count the field can
// hold, and checks that a wider field still lands in range.
func TestShardOfIsFieldModulo(t *testing.T) {
	property := func(addr uint64, shift, width uint8, k uint32) bool {
		d := shardreplay.Decision{FieldShift: uint(shift % 24), FieldWidth: 1 + uint(width%40)}
		d.Shards = 2 + int(uint64(k)%(1<<min(d.FieldWidth, 32)-1))
		p := d.Partition()
		got := p.ShardOf(memtrace.Addr(addr))
		if got < 0 || got >= d.Shards {
			return false
		}
		if d.FieldWidth > 32 {
			return true
		}
		field := addr >> d.FieldShift & (1<<d.FieldWidth - 1)
		return got == int(field%uint64(d.Shards))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
