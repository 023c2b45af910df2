package main

import (
	"fmt"

	"sian/internal/check"
	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/monitor"
	"sian/internal/storage/wal"
	"sian/internal/workload"
)

// finalValues looks a key's last committed value up, however the
// caller got at it (a read-only transaction, or a reopened driver).
type finalValues func(model.Obj) (model.Value, bool)

// checkCommitCount: every transaction the sessions saw acknowledged is
// a commit the engine counted, and nothing else is.
func checkCommitCount(acked, engineCommits int64) error {
	if acked != engineCommits {
		return fmt.Errorf("sessions saw %d commits acknowledged, engine counted %d", acked, engineCommits)
	}
	return nil
}

// checkOwnKeys: on private keys the final value is the number of
// increments the owner saw acknowledged — anything else is a lost or a
// phantom update.
func checkOwnKeys(final finalValues, keys []model.Obj, expect []model.Value) error {
	for i, k := range keys {
		got, ok := final(k)
		if !ok {
			return fmt.Errorf("key %s has no value", k)
		}
		if got != expect[i] {
			return fmt.Errorf("lost update on %s: final value %d, owner committed %d increments", k, got, expect[i])
		}
	}
	return nil
}

// checkHotCounters: first-committer-wins means each shared counter
// ends at exactly the number of acknowledged increments on it.
func checkHotCounters(final finalValues, acked [hotCounters]model.Value) error {
	for i, want := range acked {
		got, ok := final(hotKey(i))
		if !ok || got != want {
			return fmt.Errorf("hot counter %s = %d, but %d increments were acknowledged", hotKey(i), got, want)
		}
	}
	return nil
}

// checkPairs: snapshot atomicity — no transaction saw the two keys of a
// pair differ, and no pair differs at the end.
func checkPairs(final finalValues, pool []model.Obj, torn int64, example string) error {
	if torn > 0 {
		return fmt.Errorf("%d reads saw half a commit (e.g. %s)", torn, example)
	}
	for i := 0; i+1 < len(pool); i += 2 {
		a, _ := final(pool[i])
		b, _ := final(pool[i+1])
		if a != b {
			return fmt.Errorf("pair %s=%d %s=%d differs at the end", pool[i], a, pool[i+1], b)
		}
	}
	return nil
}

// checkRecovery: the reopened log certified as SI and accounts for
// every acknowledged commit. Each commit is one log record with its own
// sequence number, and rotation folds old records into the snapshot, so
// completeness is the recovered frontier — the last sequence number
// found in snapshot or segments — not the number of records replayed.
// (Final values are checked by the caller through checkOwnKeys on the
// reopened driver.)
func checkRecovery(info wal.RecoveryInfo, acked int64) error {
	if !info.Certified {
		return fmt.Errorf("recovery not certified: %s", info.Verdict)
	}
	if int64(info.LastLSN) < acked {
		return fmt.Errorf("recovery found log records up to %d, but %d commits were acknowledged", info.LastLSN, acked)
	}
	return nil
}

// checkOfflineVerdict: H_off is a member of SI.
func checkOfflineVerdict(res *check.Result) error {
	if !res.Member {
		return fmt.Errorf("check.Certify rejected H_off: %v", res.Explain)
	}
	return nil
}

// checkMonitorVerdict: H_on is a member of SI with no violation, and
// every commit in it was judged.
func checkMonitorVerdict(rep *monitor.Report, commits int) error {
	if !rep.Member || len(rep.Violations) > 0 {
		return fmt.Errorf("monitor rejected H_on: member=%v, %d violations", rep.Member, len(rep.Violations))
	}
	if int(rep.Commits) != commits {
		return fmt.Errorf("monitor judged %d commits of %d", rep.Commits, commits)
	}
	return nil
}

// checkRejectsLostUpdate: the certifiers are not vacuous — the paper's
// lost-update history (Figure 2b) must be rejected.
func checkRejectsLostUpdate() error {
	ex := workload.LostUpdate()
	res, err := check.Certify(ex.History, depgraph.SI, check.Options{NoInit: true, PinInit: true})
	if err != nil {
		return err
	}
	if res.Member {
		return fmt.Errorf("check.Certify accepted the lost-update history")
	}
	return nil
}
