// Package desim is a fixture for the simdeterminism analyzer: it sits
// at a determinism-critical import path and exercises every rule plus
// the //anufs:allow escape hatch.
package desim

import (
	"math/rand"
	"syscall"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func napTime() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
}

// kernelNap goes round the runtime's timers, not round the rule.
func kernelNap() {
	ts := syscall.NsecToTimespec(1000)
	_ = syscall.Nanosleep(&ts, nil) // want `syscall\.Nanosleep waits on the wall clock`
}

func globalRand() int {
	return rand.Intn(4) // want `rand\.Intn draws from the process-global stream`
}

// seededRand is fine: the stream is explicit and reproducible.
func seededRand() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(4)
}

// elapsed is fine: durations are values, not clock reads.
func elapsed(d time.Duration) time.Duration {
	return d * 2
}

func mapIteration(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order is nondeterministic`
		keys = append(keys, k)
	}
	return keys
}

func allowedIteration(m map[string]int) int {
	total := 0
	for _, v := range m { //anufs:allow simdeterminism commutative integer sum; order cannot matter
		total += v
	}
	return total
}

func sliceIterationIsFine(s []int) int {
	total := 0
	for _, v := range s {
		total += v
	}
	return total
}

func bareAllow(m map[string]int) int {
	total := 0
	for _, v := range m { //anufs:allow simdeterminism // want `anufs:allow needs an analyzer name and a reason` `map iteration order is nondeterministic`
		total += v
	}
	return total
}

//anufs:allow nosuchanalyzer because reasons // want `anufs:allow names unknown analyzer nosuchanalyzer`
var one = 1

//anufs:allow simdeterminism overly cautious annotation // want `unused anufs:allow for simdeterminism`
var two = 2
