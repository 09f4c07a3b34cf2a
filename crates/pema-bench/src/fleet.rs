//! The fleet every fleet surface runs — `pema-cli fleet` and the
//! `fleet_scale` and `fleet_contention` scenarios — described once.

use pema::prelude::*;

/// App and offered load of member `i` of a fleet cycling `templates`
/// (see [`fleet_member`]).
pub(crate) fn member_load(templates: &[(AppSpec, f64)], i: usize) -> (&AppSpec, f64) {
    let (app, nominal) = &templates[i % templates.len()];
    (app, pema_apps::fleet_rps(*nominal, i, templates.len()))
}

/// What [`policy_by_name`] builds.
type NamedPolicy = Box<dyn Policy + Send>;

/// Member `i` of a fleet seeded at `seed0`, as `(policy name, rps,
/// run description)`: template `i mod n` of `templates`
/// ([`pema_apps::fleet_mix`] for the mixed fleet) at its place on
/// [`pema_apps::fleet_rps`]'s ±20 % load ladder, named `"{app}-{i}"`,
/// under `policy` — or, for `"mixed"`, its turn of the pema / rule /
/// hold cycle — seeded `seed0 ^ i`, on the backend `on(app, harness
/// seed)` with the harness seeded `seed0 + i`. The caller adds timing
/// and length. `None` for a policy [`policy_by_name`] does not know.
///
/// `pema-cli fleet --seed 991975` (`0xF1EE7`) and the `fleet_scale`
/// scenario are the same fleet.
pub fn fleet_member<'a, B>(
    templates: &[(AppSpec, f64)],
    i: usize,
    policy: &'a str,
    seed0: u64,
    on: impl FnOnce(&AppSpec, u64) -> B,
) -> Option<(&'a str, f64, MemberSpec<NamedPolicy, B>)> {
    let (app, rps) = member_load(templates, i);
    let policy = match policy {
        "mixed" => ["pema", "rule", "hold"][i % 3],
        one => one,
    };
    let seed = seed0.wrapping_add(i as u64);
    let built = policy_by_name(policy, app.slo_ms, &app.generous_alloc, seed0 ^ i as u64)?;
    let spec = MemberSpec::new()
        .name(format!("{}-{i}", app.name))
        .app(app)
        .policy(built)
        .backend(on(app, seed))
        .seed(seed)
        .rps(rps);
    Some((policy, rps, spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At `seed0 = 0xF1EE7` the members are `fleet_scale`'s: run at its
    /// smoke lengths on the fluid model, each reproduces its row of the
    /// committed golden.
    #[test]
    fn members_at_the_scenario_seed_reproduce_the_fleet_scale_golden() {
        let golden = include_str!("../tests/goldens/fleet/fleet_scale.csv");
        let templates = pema_apps::fleet_mix();
        let mut fleet = Fleet::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            let member = fleet_member(&templates, i, "mixed", 0xF1EE7, |_, _| UseFluid);
            let (policy, rps, spec) = member.unwrap();
            labels.push((&member_load(&templates, i).0.name, policy, rps));
            fleet = fleet.member(spec.interval_s(6.0).warmup_s(1.0).iters(2));
        }
        let result = fleet.run();
        let mut golden = golden.lines().skip(1);
        for (i, (run, (app, policy, rps))) in result.runs.iter().zip(labels).enumerate() {
            assert_eq!(run.name, format!("{app}-{i}"));
            let r = &run.result;
            let row = format!(
                "{i},{app},{policy},{rps:.0},{},{:.3},{},",
                r.log.len(),
                r.settled_total(10),
                r.violations()
            );
            let golden = golden.next().unwrap();
            assert!(golden.starts_with(&row), "{row} vs golden {golden}");
        }
        assert!(fleet_member(&templates, 0, "managed", 0xF1EE7, |_, _| UseFluid).is_none());
    }
}
