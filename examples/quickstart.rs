//! Quickstart: the Indus-script running example (Figures 1–2,
//! Examples 1.1–1.2).
//!
//! Three archaeologists assert conflicting origins for Indus glyphs; trust
//! mappings with priorities resolve each user's view. The second half
//! replays the paper's update sequences to show that resolution is
//! order-invariant and handles revocations — the failure mode of
//! FIFO update-propagation systems.
//!
//! Run with: `cargo run --example quickstart`

use trustmap::prelude::*;

fn main() -> trustmap::Result<()> {
    // Figure 2: Alice trusts Bob (100) and Charlie (50); Bob trusts Alice.
    let mut net = TrustNetwork::new();
    let alice = net.user("Alice");
    let bob = net.user("Bob");
    let charlie = net.user("Charlie");
    net.trust(alice, bob, 100)?;
    net.trust(alice, charlie, 50)?;
    net.trust(bob, alice, 80)?;

    // Figure 1a, one object per glyph. Each object is resolved separately;
    // we loop over the three glyphs with their asserted origins.
    let glyphs: [(&str, Vec<(&str, User)>); 3] = [
        (
            "glyph-1",
            vec![("ship hull", alice), ("cow", bob), ("jar", charlie)],
        ),
        ("glyph-2", vec![("fish", bob), ("knot", charlie)]),
        ("glyph-3", vec![("arrow", bob), ("arrow", charlie)]),
    ];

    println!("Alice's snapshot (Figure 1b):");
    println!("{:<10} {:<12}", "glyph", "origin");
    for (glyph, assertions) in &glyphs {
        for u in [alice, bob, charlie] {
            net.revoke(u)?;
        }
        for &(origin, user) in assertions {
            let v = net.value(origin);
            net.believe(user, v)?;
        }
        let r = resolve_network(&net)?;
        let origin = r
            .cert(alice)
            .map(|v| net.domain().name(v).to_owned())
            .unwrap_or_else(|| "(conflict)".to_owned());
        println!("{glyph:<10} {origin:<12}");
    }

    // Example 1.2, first sequence: Charlie inserts jar, then Bob inserts
    // cow. A FIFO system leaves Alice on jar; stable-solution resolution
    // gives her cow regardless of update order.
    println!("\nExample 1.2 — update independence:");
    for u in [alice, bob, charlie] {
        net.revoke(u)?;
    }
    let jar = net.value("jar");
    let cow = net.value("cow");
    net.believe(charlie, jar)?;
    let r = resolve_network(&net)?;
    println!(
        "  after Charlie: Alice sees {}",
        net.domain().name(r.cert(alice).expect("defined"))
    );
    net.believe(bob, cow)?;
    let r = resolve_network(&net)?;
    println!(
        "  after Bob:     Alice sees {} (priority 100 beats 50)",
        net.domain().name(r.cert(alice).expect("defined"))
    );

    // Second sequence: Charlie updates jar → cow while Bob is silent. Both
    // Alice and Bob follow, even though they import from each other with
    // top priority — the lineage requirement breaks the stale cycle.
    net.revoke(bob)?;
    net.believe(charlie, cow)?;
    let r = resolve_network(&net)?;
    println!("\nExample 1.2 — revocation and update:");
    for u in [alice, bob, charlie] {
        let view = r
            .cert(u)
            .map(|v| net.domain().name(v).to_owned())
            .unwrap_or_else(|| "-".to_owned());
        println!("  {:<8} sees {view}", net.user_name(u));
    }

    // Lineage: where did Alice's belief come from?
    let btn = binarize(&net);
    let res = resolve_with(
        &btn,
        trustmap::Options {
            lineage: true,
            ..Default::default()
        },
    )?;
    let lin = res.lineage().expect("lineage requested");
    if let Some(chain) = lin.trace(btn.node_of(alice), cow) {
        let names: Vec<String> = chain.iter().map(|&n| btn.name(n).to_string()).collect();
        println!("\nLineage of Alice's `cow`: {}", names.join(" ← "));
    }
    Ok(())
}
