package volume

import (
	"sync"
	"time"
)

// Bucket is a token bucket enforcing a volume's op-rate quota on one
// daemon. Tokens accrue at rate per second up to one second's burst (at
// least 1), so a tenant can spend a short burst but sustains only its
// configured rate. The zero rate is rejected by the constructor — callers
// simply keep no bucket for unlimited volumes.
type Bucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewBucket builds a bucket admitting rate ops per second; nil when
// rate <= 0 (unlimited).
func NewBucket(rate float64) *Bucket {
	if !(rate > 0) {
		return nil
	}
	burst := rate
	if burst < 1 {
		burst = 1
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// Rate reports the configured rate (for change detection on quota
// updates); 0 for the nil bucket of an unlimited volume.
func (b *Bucket) Rate() float64 {
	if b == nil {
		return 0
	}
	return b.rate
}

// Allow consumes one token if available.
func (b *Bucket) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
