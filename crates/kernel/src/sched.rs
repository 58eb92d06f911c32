//! Idle-processor scheduling.
//!
//! Section 3.4: "For each domain, the kernel keeps a counter indicating the
//! number of times that a processor idling in the context of that domain
//! was needed but not found. The kernel uses these counters to prod idle
//! processors to spin in domains showing the most LRPC activity."
//!
//! The per-domain miss counters live on [`crate::domain::Domain`]; this
//! module implements the prodding policy that redistributes idle CPUs.

use std::sync::Arc;

use firefly::cpu::Machine;

use crate::domain::Domain;

/// Redistributes the machine's idle processors to the domains that missed
/// the idle-processor optimization most often, then resets the counters.
///
/// Returns, per domain (in the order given), how many idle CPUs were parked
/// in its context. CPUs currently running (not idling in any context) are
/// never touched.
pub fn prod_idle_processors(machine: &Machine, domains: &[Arc<Domain>]) -> Vec<usize> {
    // Collect the idle CPUs.
    let idle_cpus: Vec<usize> = (0..machine.num_cpus())
        .filter(|&i| machine.cpu(i).idle_in().is_some())
        .collect();

    // Rank domains by missed opportunities, most-missed first; domains with
    // no misses get no dedicated spinner.
    let mut ranked: Vec<(usize, u64)> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| (i, d.idle_misses()))
        .filter(|&(_, m)| m > 0)
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut assigned = vec![0usize; domains.len()];
    if ranked.is_empty() {
        return assigned;
    }

    // Scheduler picks are recorded decisions: one event per (cpu, domain)
    // assignment, in assignment order.
    let rr = machine
        .replay_session()
        .map(|session| session.stream("sched:prod"));

    // Round-robin the idle CPUs over the ranked domains, highest first.
    for (k, cpu_id) in idle_cpus.iter().enumerate() {
        let (dom_idx, _) = ranked[k % ranked.len()];
        machine
            .cpu(*cpu_id)
            .set_idle_in(Some(domains[dom_idx].ctx().id()));
        assigned[dom_idx] += 1;
        if let Some(h) = &rr {
            h.emit(
                replay::kind::SCHED_ASSIGN,
                (domains[dom_idx].id().0 << 16) | *cpu_id as u64,
            );
        }
    }

    for d in domains {
        d.reset_idle_misses();
    }
    assigned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DomainId;
    use firefly::cost::CostModel;
    use firefly::vm::ContextId;
    use firefly::vm::VmContext;

    fn domain(id: u64, ctx: u64) -> Arc<Domain> {
        Arc::new(Domain::new(
            DomainId(id),
            format!("d{id}"),
            Arc::new(VmContext::new(ContextId(ctx))),
        ))
    }

    #[test]
    fn busiest_domain_gets_the_idle_processors() {
        let machine = Machine::new(4, CostModel::cvax_firefly());
        // CPUs 2 and 3 are idle (in the kernel context by default).
        machine.cpu(2).set_idle_in(Some(ContextId::KERNEL));
        machine.cpu(3).set_idle_in(Some(ContextId::KERNEL));

        let busy = domain(1, 10);
        let quiet = domain(2, 11);
        for _ in 0..5 {
            busy.note_idle_miss();
        }
        quiet.note_idle_miss();

        let assigned = prod_idle_processors(&machine, &[Arc::clone(&busy), Arc::clone(&quiet)]);
        assert_eq!(
            assigned,
            vec![1, 1],
            "two idle CPUs split across two missing domains"
        );
        // The busiest domain is ranked first, so CPU 2 spins in its context.
        assert_eq!(machine.cpu(2).idle_in(), Some(ContextId(10)));
        assert_eq!(machine.cpu(3).idle_in(), Some(ContextId(11)));
        assert_eq!(busy.idle_misses(), 0, "counters are reset after prodding");
    }

    #[test]
    fn running_cpus_are_not_prodded() {
        let machine = Machine::new(2, CostModel::cvax_firefly());
        // No CPU marked idle.
        let d = domain(1, 10);
        d.note_idle_miss();
        let assigned = prod_idle_processors(&machine, &[d]);
        assert_eq!(assigned, vec![0]);
    }

    #[test]
    fn no_misses_means_no_assignment() {
        let machine = Machine::new(2, CostModel::cvax_firefly());
        machine.cpu(1).set_idle_in(Some(ContextId::KERNEL));
        let d = domain(1, 10);
        let assigned = prod_idle_processors(&machine, &[d]);
        assert_eq!(assigned, vec![0]);
        assert_eq!(
            machine.cpu(1).idle_in(),
            Some(ContextId::KERNEL),
            "idle CPU left alone"
        );
    }

    #[test]
    fn single_hot_domain_takes_all_idle_cpus() {
        let machine = Machine::new(4, CostModel::cvax_firefly());
        for i in 1..4 {
            machine.cpu(i).set_idle_in(Some(ContextId::KERNEL));
        }
        let hot = domain(1, 10);
        hot.note_idle_miss();
        let assigned = prod_idle_processors(&machine, &[Arc::clone(&hot)]);
        assert_eq!(assigned, vec![3]);
        for i in 1..4 {
            assert_eq!(machine.cpu(i).idle_in(), Some(ContextId(10)));
        }
    }
}
