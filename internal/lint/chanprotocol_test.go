package lint

import "testing"

func TestChanprotocol(t *testing.T) {
	src := `package chanprotocol

func doubleClose() {
	ch := make(chan int)
	close(ch)
	close(ch) //want may already be closed
}

func sendAfterClose() {
	ch := make(chan int)
	close(ch)
	ch <- 1 //want after it is closed
}

func sendTo(ch chan int) { ch <- 2 }

// The late send hides behind a summarized helper.
func sendAfterCloseViaHelper() {
	ch := make(chan int)
	close(ch)
	sendTo(ch) //want after it is closed
}

func closeParam(ch chan int) {
	close(ch) //want non-owner
}

// Ownership transfer asserted: the spawner hands the channel over.
//
//texsim:closes producer owns the results channel it was handed
func closeOwned(ch chan int) {
	close(ch)
}

// Mutually exclusive branches never close twice at runtime.
func closeEitherBranch(a bool) {
	ch := make(chan int)
	if a {
		close(ch)
	} else {
		close(ch)
	}
}

type rendered struct {
	shards [][]byte
	ready  []chan struct{}
}

// Publication miniature: store the shard, then announce it.
//
//texsim:publishes shards ready
func (rt *rendered) publish(f int, data []byte) {
	rt.shards[f] = data
	close(rt.ready[f])
}

// The store-then-close order is inverted: a reader woken by the close can
// observe a nil shard.
//
//texsim:publishes shards ready
func (rt *rendered) publishInverted(f int, data []byte) {
	close(rt.ready[f]) //want texsim:publishes contract
	rt.shards[f] = data
}

//texsim:publishes shards
func (rt *rendered) badAnnotation(f int) { //want malformed //texsim:publishes annotation
	close(rt.ready[f])
}

// Abort miniature: closing ready[f] across loop iterations closes a
// different channel each time, not the same one twice.
func (rt *rendered) abort(from int) {
	for f := from; f < len(rt.ready); f++ {
		close(rt.ready[f])
	}
}
`
	testAnalyzer(t, Chanprotocol, "chanprotocol", src)
}
