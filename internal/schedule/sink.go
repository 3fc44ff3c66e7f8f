package schedule

// Sink receives finalized schedule chunks from a streaming mapper. Flush
// borrows the chunk for the duration of the call, the way io.Writer
// borrows p: the mapper reuses the chunk's memory — the slice and the
// gates' qubit slices — once Flush returns, so a sink that needs any of it
// later must copy it (Gate.Clone). A non-nil error aborts the stream; the
// mapper returns it unchanged.
//
// Chunks arrive in finalization order. For core.RemapStream the
// concatenation of all chunks is exactly the Gates slice of the batch
// Remap schedule (ascending Start, same tie order); for sabre.RemapStream
// it is the batch result circuit's gate sequence annotated with ASAP
// start times.
type Sink interface {
	Flush(chunk []ScheduledGate) error
}

// Collector is a Sink that concatenates deep copies of the chunks in
// memory — the bridge for whole-result consumers and the differential
// tests, which compare the concatenation against the batch path byte for
// byte.
type Collector struct {
	Gates  []ScheduledGate
	Chunks int
}

// Flush implements Sink.
func (c *Collector) Flush(chunk []ScheduledGate) error {
	for _, sg := range chunk {
		sg.Gate = sg.Gate.Clone()
		c.Gates = append(c.Gates, sg)
	}
	c.Chunks++
	return nil
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(chunk []ScheduledGate) error

// Flush implements Sink.
func (f FuncSink) Flush(chunk []ScheduledGate) error { return f(chunk) }
