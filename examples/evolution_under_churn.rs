//! Evolution under churn (§4.4): placement constraints are maintained as
//! nodes crash and recover. "As events arise that cause a given
//! constraint to be violated (such as the sudden unavailability of a
//! particular node), it is the role of the monitoring engine to make
//! appropriate adjustments to satisfy the constraint again."
//!
//! Run with: `cargo run --example evolution_under_churn`

use gloss::core::{ActiveArchitecture, ArchConfig, ServiceSpec};
use gloss::sim::{NodeIndex, SimDuration};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut arch =
        ActiveArchitecture::build(ArchConfig { nodes: 10, seed: 99, ..Default::default() });
    arch.settle();

    let spec = ServiceSpec::new(
        "replication",
        include_str!("matchlets/replication_noop.matchlet"),
        vec![(None, 3)],
    )?;
    arch.deploy_service(spec);
    arch.run_for(SimDuration::from_secs(60));

    let hosts = arch.hosts_of("matchlet:replication");
    println!("initial hosts: {hosts:?}  satisfaction {:.0}%", arch.satisfaction() * 100.0);
    assert_eq!(hosts.len(), 3);

    // Kill two of the three hosts, 30 s apart.
    println!("\ncrashing {} and {}...", hosts[0], hosts[1]);
    arch.world_mut().crash(hosts[0]);
    arch.run_for(SimDuration::from_secs(30));
    arch.world_mut().crash(hosts[1]);

    // Failure deadline (30 s) + sweep (10 s) + bundle round trips.
    arch.run_for(SimDuration::from_secs(150));
    let new_hosts = arch.hosts_of("matchlet:replication");
    println!(
        "after repair: hosts {new_hosts:?}  satisfaction {:.0}%  repair episodes: {:?}",
        arch.satisfaction() * 100.0,
        arch.node(NodeIndex(0))
            .coordinator_state
            .as_ref()
            .unwrap()
            .evolution
            .repair_episodes
            .iter()
            .map(|(a, b)| format!("{}", b.since(*a)))
            .collect::<Vec<_>>(),
    );
    assert_eq!(arch.satisfaction(), 1.0);
    assert!(new_hosts.len() >= 3);
    assert!(new_hosts.iter().all(|h| *h != hosts[0] && *h != hosts[1]));

    // One victim recovers and rejoins the resource pool.
    println!("\nrecovering {}...", hosts[0]);
    arch.world_mut().recover(hosts[0]);
    arch.run_for(SimDuration::from_secs(60));
    let cs = arch.node(NodeIndex(0)).coordinator_state.as_ref().unwrap();
    println!(
        "monitor sees {} alive workers; constraint still satisfied: {}",
        cs.evolution.resources().len(),
        arch.satisfaction() == 1.0
    );
    Ok(())
}
