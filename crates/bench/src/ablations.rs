//! Ablations of LRPC's design choices.
//!
//! Each ablation flips one of the design decisions the paper argues for
//! and measures the consequence:
//!
//! * idle-processor domain caching on/off (Section 3.4);
//! * a process-tagged TLB versus invalidate-on-switch (Section 3.4);
//! * lazy A-stack/E-stack association versus static preallocation
//!   (Section 3.2's address-space argument);
//! * contiguous primary A-stacks versus overflow A-stacks (Section 5.2's
//!   validation fast path);
//! * `noninterpreted` annotations versus defensive server copies
//!   (Section 3.5).

use firefly::cost::CostModel;
use firefly::cpu::Machine;
use firefly::tlb::TlbMode;
use idl::wire::Value;
use lrpc::{AStackMapping, AStackPolicy, Handler, Reply, ServerCtx, TestRuntime};

use crate::common::{lrpc_bench_handlers, LrpcEnv, BENCH_IDL};

/// Domain caching on/off.
#[derive(Clone, Debug)]
pub struct CachingAblation {
    /// Serial Null (µs).
    pub serial_us: f64,
    /// Exchanged Null (µs).
    pub cached_us: f64,
    /// Saving (µs).
    pub saving_us: f64,
}

/// Measures the idle-processor optimization's effect on the Null call.
pub fn domain_caching() -> CachingAblation {
    let serial = LrpcEnv::new(1, false)
        .steady_latency("Null", &[])
        .as_micros_f64();
    let cached = LrpcEnv::new(2, true)
        .steady_latency_mp("Null", &[])
        .as_micros_f64();
    CachingAblation {
        serial_us: serial,
        cached_us: cached,
        saving_us: serial - cached,
    }
}

/// Renders the caching ablation.
pub fn render_domain_caching(a: &CachingAblation) -> String {
    format!(
        "Ablation: idle-processor domain caching\n\
         serial Null:    {:.0}us (two context switches)\n\
         exchanged Null: {:.0}us (two processor exchanges)\n\
         saving: {:.0}us per call (paper: 157 -> 125)\n",
        a.serial_us, a.cached_us, a.saving_us
    )
}

/// Tagged-TLB ablation.
#[derive(Clone, Debug)]
pub struct TaggedTlbAblation {
    /// Misses per Null call, invalidate-on-switch.
    pub untagged_misses: u64,
    /// Misses per Null call, tagged TLB.
    pub tagged_misses: u64,
    /// Refill time avoided (µs).
    pub saving_us: f64,
    /// Estimated Null with a tagged TLB (µs).
    pub estimated_null_us: f64,
}

/// Measures the TLB misses a process-tagged TLB would avoid.
///
/// "The high cost of frequent domain crossing can also be reduced by
/// using a TLB that includes a process tag." The measured per-phase costs
/// include refill time, so the tagged estimate subtracts the avoided
/// refills; the mapping-register reload itself remains ("a single-
/// processor domain switch still requires that hardware mapping registers
/// be modified on the critical transfer path").
pub fn tagged_tlb() -> TaggedTlbAblation {
    let untagged = LrpcEnv::new(1, false);
    let machine = Machine::with_tlb_mode(1, CostModel::cvax_firefly(), TlbMode::Tagged);
    let rt = TestRuntime::new()
        .machine(machine)
        .domain_caching(false)
        .build();
    let tagged = LrpcEnv::bind(rt, BENCH_IDL, lrpc_bench_handlers());
    // Extra warmup so both TLBs reach steady state.
    for env in [&untagged, &tagged] {
        env.binding.call(0, &env.thread, "Null", &[]).unwrap();
        env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    }
    let u = untagged
        .binding
        .call(0, &untagged.thread, "Null", &[])
        .unwrap();
    let t = tagged.binding.call(0, &tagged.thread, "Null", &[]).unwrap();
    let miss_cost = CostModel::cvax_firefly().hw.tlb_miss.as_micros_f64();
    let saving = (u.meter.tlb_misses().saturating_sub(t.meter.tlb_misses())) as f64 * miss_cost;
    TaggedTlbAblation {
        untagged_misses: u.meter.tlb_misses(),
        tagged_misses: t.meter.tlb_misses(),
        saving_us: saving,
        estimated_null_us: u.elapsed.as_micros_f64() - saving,
    }
}

/// Renders the tagged-TLB ablation.
pub fn render_tagged_tlb(a: &TaggedTlbAblation) -> String {
    format!(
        "Ablation: process-tagged TLB\n\
         invalidate-on-switch: {} misses per Null call\n\
         tagged:               {} misses per Null call\n\
         refill time avoided: {:.1}us -> estimated Null {:.0}us \
         (register reload still required on the transfer path)\n",
        a.untagged_misses, a.tagged_misses, a.saving_us, a.estimated_null_us
    )
}

/// E-stack management ablation.
#[derive(Clone, Debug)]
pub struct EStackAblation {
    /// A-stacks allocated by the binding.
    pub astacks: usize,
    /// E-stacks a static one-per-A-stack scheme would allocate.
    pub static_estacks: usize,
    /// E-stacks the lazy scheme actually allocated after the workload.
    pub lazy_estacks: usize,
    /// Bytes of server address space each scheme consumes.
    pub static_bytes: usize,
    /// Bytes under the lazy scheme.
    pub lazy_bytes: usize,
    /// Calls that reused an existing association.
    pub lazy_hits: u64,
}

/// Measures lazy E-stack association against static preallocation.
pub fn estack_management() -> EStackAblation {
    let env = LrpcEnv::new(1, false);
    // A serial workload over all four procedures: LIFO A-stack reuse means
    // very few E-stacks are ever needed.
    for _ in 0..50 {
        for (proc, args) in crate::common::four_tests() {
            env.binding.call(0, &env.thread, proc, &args).unwrap();
        }
    }
    let pool = env.rt.estack_pool(&env.server);
    let stats = pool.stats();
    let astacks = env.binding.state().astacks.total_count();
    let estack_size = pool.estack_size();
    EStackAblation {
        astacks,
        static_estacks: astacks,
        lazy_estacks: stats.allocations as usize,
        static_bytes: astacks * estack_size,
        lazy_bytes: stats.allocations as usize * estack_size,
        lazy_hits: stats.lazy_hits,
    }
}

/// Renders the E-stack ablation.
pub fn render_estack(a: &EStackAblation) -> String {
    format!(
        "Ablation: lazy E-stack association vs static preallocation\n\
         binding allocates {} A-stacks; static E-stack allocation would pin {} E-stacks \
         ({} KiB of server address space)\n\
         lazy association allocated {} E-stack(s) ({} KiB), {} calls reused an association\n\
         (paper: \"E-stacks can be large (tens of kilobytes) and must be managed \
         conservatively; otherwise a server's address space could be exhausted\")\n",
        a.astacks,
        a.static_estacks,
        a.static_bytes / 1024,
        a.lazy_estacks,
        a.lazy_bytes / 1024,
        a.lazy_hits
    )
}

/// Contiguous vs overflow A-stack validation.
#[derive(Clone, Debug)]
pub struct ValidationAblation {
    /// Null latency through a primary (contiguous) A-stack (µs).
    pub primary_us: f64,
    /// Null latency through an overflow A-stack (µs).
    pub overflow_us: f64,
}

/// Measures the slower validation path of non-contiguous A-stacks.
pub fn astack_validation() -> ValidationAblation {
    // Primary path.
    let env = LrpcEnv::new(1, false);
    let primary = env.steady_latency("Null", &[]).as_micros_f64();

    // Overflow path: a one-A-stack procedure with the Grow policy, with
    // the primary stack held so every call lands on an overflow stack.
    let rt = TestRuntime::new()
        .domain_caching(false)
        .astack_policy(AStackPolicy::Grow)
        .build();
    let one = LrpcEnv::bind(
        rt,
        "interface One { [astacks = 1] procedure P(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    );
    let _held = one
        .binding
        .state()
        .astacks
        .acquire(
            0,
            AStackPolicy::Fail,
            one.rt.kernel(),
            &one.client,
            &one.server,
        )
        .unwrap();
    let overflow = one.steady_latency("P", &[]).as_micros_f64();
    ValidationAblation {
        primary_us: primary,
        overflow_us: overflow,
    }
}

/// Renders the validation ablation.
pub fn render_validation(a: &ValidationAblation) -> String {
    format!(
        "Ablation: contiguous vs overflow A-stack validation\n\
         primary (range check): {:.0}us\n\
         overflow (table look-up): {:.0}us (+{:.0}us — \"slightly more time to validate\")\n",
        a.primary_us,
        a.overflow_us,
        a.overflow_us - a.primary_us
    )
}

/// `noninterpreted` annotation ablation.
#[derive(Clone, Debug)]
pub struct CopyAblation {
    /// 200-byte call with `noninterpreted` data (µs).
    pub noninterpreted_us: f64,
    /// 200-byte call with interpreted data (defensive copy) (µs).
    pub interpreted_us: f64,
    /// Copy letters observed for each.
    pub letters: (String, String),
}

/// Measures the cost of the defensive server copy that `noninterpreted`
/// arguments avoid.
pub fn noninterpreted_copy() -> CopyAblation {
    let env = LrpcEnv::bind(
        TestRuntime::new().domain_caching(false).build(),
        r#"interface W {
            procedure WriteRaw(data: in var bytes[200] noninterpreted);
            procedure WriteChecked(data: in var bytes[200]);
        }"#,
        vec![
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler,
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler,
        ],
    );
    let args = [Value::Var(vec![7; 200])];
    let raw = env.steady_call("WriteRaw", &args);
    let checked = env.steady_call("WriteChecked", &args);
    CopyAblation {
        noninterpreted_us: raw.elapsed.as_micros_f64(),
        interpreted_us: checked.elapsed.as_micros_f64(),
        letters: (raw.copies.letters_string(), checked.copies.letters_string()),
    }
}

/// Renders the copy ablation.
pub fn render_noninterpreted(a: &CopyAblation) -> String {
    format!(
        "Ablation: noninterpreted annotation (Section 3.5's Write example)\n\
         noninterpreted 200-byte write: {:.0}us (copies: {})\n\
         interpreted 200-byte write:    {:.0}us (copies: {}, defensive server copy)\n\
         the annotation saves {:.0}us per call\n",
        a.noninterpreted_us,
        a.letters.0,
        a.interpreted_us,
        a.letters.1,
        a.interpreted_us - a.noninterpreted_us
    )
}

/// Pairwise vs globally-shared A-stack mapping.
#[derive(Clone, Debug)]
pub struct MappingAblation {
    /// Null latency with pairwise mapping (µs).
    pub pairwise_us: f64,
    /// Null latency with globally-shared mapping (µs).
    pub global_us: f64,
    /// Whether a third-party domain can read the channel under each mode.
    pub pairwise_exposed: bool,
    /// See `pairwise_exposed`.
    pub global_exposed: bool,
}

/// Measures the Section 3.5 Firefly caveat: globally-shared A-stacks have
/// "identical performance, but \[less\] safety" than pairwise mapping.
pub fn astack_mapping() -> MappingAblation {
    let run = |mapping: AStackMapping| {
        let rt = TestRuntime::new()
            .domain_caching(false)
            .astack_mapping(mapping)
            .build();
        let server = rt.kernel().create_domain("s");
        rt.export(
            &server,
            "interface M { procedure P(); }",
            vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
        )
        .expect("export");
        let snoop = rt.kernel().create_domain("snoop");
        let client = rt.kernel().create_domain("c");
        let thread = rt.kernel().spawn_thread(&client);
        let binding = rt.import(&client, "M").expect("import");
        binding.call(0, &thread, "P", &[]).expect("warmup");
        let elapsed = binding.call(0, &thread, "P", &[]).expect("call").elapsed;
        let exposed = snoop
            .ctx()
            .check(binding.state().astacks.primary_region().id(), false, false)
            .is_ok();
        (elapsed.as_micros_f64(), exposed)
    };
    let (pairwise_us, pairwise_exposed) = run(AStackMapping::Pairwise);
    let (global_us, global_exposed) = run(AStackMapping::GloballyShared);
    MappingAblation {
        pairwise_us,
        global_us,
        pairwise_exposed,
        global_exposed,
    }
}

/// Renders the mapping ablation.
pub fn render_astack_mapping(a: &MappingAblation) -> String {
    format!(
        "Ablation: pairwise vs globally-shared A-stack mapping (Section 3.5)\n\
         pairwise:        Null {:.0}us, channel readable by third parties: {}\n\
         globally shared: Null {:.0}us, channel readable by third parties: {}\n\
         \"identical performance, but greater safety\" for the pairwise design\n",
        a.pairwise_us, a.pairwise_exposed, a.global_us, a.global_exposed
    )
}

/// Runs every ablation and concatenates the reports.
pub fn all() -> String {
    let mut out = String::new();
    out.push_str(&render_domain_caching(&domain_caching()));
    out.push('\n');
    out.push_str(&render_tagged_tlb(&tagged_tlb()));
    out.push('\n');
    out.push_str(&render_estack(&estack_management()));
    out.push('\n');
    out.push_str(&render_validation(&astack_validation()));
    out.push('\n');
    out.push_str(&render_noninterpreted(&noninterpreted_copy()));
    out.push('\n');
    out.push_str(&render_astack_mapping(&astack_mapping()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_saves_32_microseconds() {
        let a = domain_caching();
        assert_eq!(a.serial_us.round() as u64, 157);
        assert_eq!(a.cached_us.round() as u64, 125);
        assert_eq!(a.saving_us.round() as u64, 32);
    }

    #[test]
    fn tagged_tlb_eliminates_steady_state_misses() {
        let a = tagged_tlb();
        assert_eq!(a.untagged_misses, 43);
        assert_eq!(
            a.tagged_misses, 0,
            "tagged entries survive context switches"
        );
        assert!((a.saving_us - 38.7).abs() < 0.5);
        assert!(a.estimated_null_us < 120.0);
    }

    #[test]
    fn lazy_estacks_use_a_fraction_of_static_space() {
        let a = estack_management();
        assert!(
            a.astacks >= 10,
            "four procedures x five A-stacks, shared classes"
        );
        assert!(
            a.lazy_estacks <= 4,
            "serial LIFO reuse needs few E-stacks: {}",
            a.lazy_estacks
        );
        assert!(a.lazy_bytes * 4 <= a.static_bytes);
        assert!(a.lazy_hits > 150);
    }

    #[test]
    fn overflow_validation_costs_three_microseconds_more() {
        let a = astack_validation();
        assert_eq!((a.overflow_us - a.primary_us).round() as i64, 3);
    }

    #[test]
    fn mapping_modes_perform_identically() {
        let a = astack_mapping();
        assert_eq!(a.pairwise_us, a.global_us);
        assert!(!a.pairwise_exposed);
        assert!(a.global_exposed);
    }

    #[test]
    fn noninterpreted_saves_the_defensive_copy() {
        let a = noninterpreted_copy();
        assert_eq!(a.letters.0, "A");
        assert_eq!(a.letters.1, "AE");
        let saving = a.interpreted_us - a.noninterpreted_us;
        // One stub op plus ~204 encoded bytes at 0.165 us/byte.
        assert!((30.0..=40.0).contains(&saving), "saving {saving}");
    }
}
