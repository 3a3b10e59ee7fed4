package core

import "time"

// SlackEstimator implements Section IV-C.2: the mean duration of poll
// syscalls measures idleness; normalized against the largest observed
// idle duration it yields a saturation slack in [0,1] — 1 means fully
// idle, ~0 means the application is at its saturation point. The zero
// value is ready to use.
type SlackEstimator struct {
	maxSeen time.Duration
}

// slackFloor is the poll duration treated as zero slack: pure dispatch
// latency with data already queued.
const slackFloor = 50 * time.Microsecond

// Observe folds one window's mean poll duration and returns the current
// slack estimate in [0,1].
func (s *SlackEstimator) Observe(meanPoll time.Duration) float64 {
	if meanPoll > s.maxSeen {
		s.maxSeen = meanPoll
	}
	return s.Slack(meanPoll)
}

// Slack converts a poll duration to a slack fraction against the
// observed idle maximum.
func (s *SlackEstimator) Slack(meanPoll time.Duration) float64 {
	if s.maxSeen <= slackFloor {
		return 1
	}
	v := float64(meanPoll-slackFloor) / float64(s.maxSeen-slackFloor)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
