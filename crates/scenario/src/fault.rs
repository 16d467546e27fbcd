//! Standalone fault plans: TOML whose root table holds the scenario
//! schema's `[faults]` keys, as `figures --faults plan.toml` reads it. One
//! reader serves both, so a plan file and a scenario's `[faults]` section
//! are the same dialect.

use kus_sim::fault::FaultPlan;

use crate::error::ScenarioError;
use crate::spec::parse_faults;
use crate::toml;

/// Parses a fault plan from TOML with the `[faults]` keys at the root
/// (`stall_prob = 0.02`, `latency_spike_ns = 8000`, …) and validates it.
/// Unknown keys are errors so typos fail loudly; errors name the line.
///
/// # Examples
///
/// ```
/// use kus_scenario::fault::parse_plan;
///
/// let plan = parse_plan(
///     "# chaos plan\nstall_prob = 0.02\nlatency_spike_prob = 0.1\nlatency_spike_ns = 8000\n",
/// )
/// .unwrap();
/// assert_eq!(plan.stall_prob, 0.02);
/// assert_eq!(plan.latency_spike.as_ns(), 8000);
/// ```
pub fn parse_plan(text: &str) -> Result<FaultPlan, ScenarioError> {
    let plan = parse_faults(&toml::parse(text)?, "")?;
    plan.validate().map_err(ScenarioError::msg)?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_sim::Span;

    #[test]
    fn parse_toml_round_trip() {
        let text = "\n# a comment\nlatency_spike_prob = 0.25 # trailing\nlatency_spike_ns = 4000\ndrop_completion_prob = 0.01\n";
        let plan = parse_plan(text).unwrap();
        assert_eq!(plan.latency_spike_prob, 0.25);
        assert_eq!(plan.latency_spike, Span::from_ns(4000));
        assert_eq!(plan.drop_completion_prob, 0.01);
        assert!(!plan.is_active() || plan.validate().is_ok());
    }

    #[test]
    fn parse_toml_rejects_unknown_and_malformed() {
        assert!(parse_plan("stall_chance = 0.1\n").is_err());
        assert!(parse_plan("stall_prob 0.1\n").is_err());
        assert!(parse_plan("stall_prob = lots\n").is_err());
        assert!(parse_plan("stall_prob = 2.0\n").is_err(), "validated");
    }

    #[test]
    fn serving_classes_parse_toml() {
        let text = "fiber_crash_prob = 0.01\nfiber_respawn_ns = 50000\n\
                    dispatcher_stall_prob = 0.02\ndispatcher_stall_ns = 10000\n\
                    freeze_period_ns = 500000\nfreeze_len_ns = 100000\nfreeze_stall_ns = 20000\n";
        let plan = parse_plan(text).unwrap();
        assert_eq!(plan.fiber_crash_prob, 0.01);
        assert_eq!(plan.fiber_respawn, Span::from_us(50));
        assert_eq!(plan.dispatcher_stall, Span::from_us(10));
        assert_eq!(plan.freeze_period, Span::from_us(500));
        assert_eq!(plan.freeze_len, Span::from_us(100));
        assert_eq!(plan.freeze_stall, Span::from_us(20));
    }
}
