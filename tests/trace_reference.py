"""The trace and ledger records the lab kept before it stored them as numpy
columns: one list of cells per traced step, and one LedgerEntry per ledger
step checked one by one.  The CSV text pipeline.write_trace_csv and
sustain.write_ledger_csv write, and SustainabilityLedger.check_bounds'
violations, must match these exactly."""

import csv
import io

from edgeids.sustain import BoundViolation


def trace_row(episode, result, anomaly_score, alert, reward_total):
    m = result.mitigation
    e = result.ledger_entry
    return [
        episode, result.step, int(result.attack_active), repr(float(anomaly_score)),
        int(alert), "" if result.action is None else int(result.action),
        result.offered_pkts["benign"], result.offered_pkts["attack"],
        result.passed_pkts["benign"], result.passed_pkts["attack"],
        result.dropped_pkts["benign"], result.dropped_pkts["attack"],
        "" if m.rate_cap is None else repr(float(m.rate_cap)),
        "" if m.syn_cap is None else repr(float(m.syn_cap)),
        int(m.drop_filter_active), len(m.blacklist),
        repr(float(result.resource.cpu_pct)), repr(float(result.resource.power_w)),
        repr(float(e.m_util)), repr(float(e.energy_j)), repr(float(e.carbon_g)),
        repr(float(reward_total)),
    ]


def ledger_rows(episodes, episode_len=0):
    """The ledger CSV's rows under its header, from each episode's list of
    LedgerEntry; episode k's steps are offset by k * episode_len."""
    return [[episode * episode_len + e.step,
             repr(float(e.power_w)), repr(float(e.dt_s)),
             repr(float(e.energy_j)), repr(float(e.m_util)),
             repr(float(e.carbon_g))]
            for episode, entries in enumerate(episodes) for e in entries]


def check_bounds(limits, entries):
    violations = []
    lim = limits
    cum_e = 0.0
    for entry in entries:
        step_cap = lim.p_max * entry.dt_s
        if entry.energy_j > step_cap:
            violations.append(
                BoundViolation(entry.step, "energy_step", entry.energy_j, step_cap)
            )
        carbon_cap = lim.kappa_max * entry.energy_j
        if entry.carbon_g > carbon_cap:
            violations.append(
                BoundViolation(entry.step, "carbon_step", entry.carbon_g, carbon_cap)
            )
        if entry.m_util > lim.m_max:
            violations.append(
                BoundViolation(entry.step, "memory", entry.m_util, lim.m_max)
            )
        cum_e += entry.energy_j
        if cum_e > lim.e_max:
            violations.append(
                BoundViolation(entry.step, "energy_cumulative", cum_e, lim.e_max)
            )
    return violations


def csv_text(header, rows):
    """The text a csv.writer writes for ``header`` and ``rows``."""
    f = io.StringIO(newline="")
    writer = csv.writer(f)
    writer.writerow(header)
    writer.writerows(rows)
    return f.getvalue()
