//! # hint-vehicular — vehicular mesh substrate and CTE route selection
//!
//! Sec. 5.1 of the paper: in a vehicular mesh, routes break as vehicles
//! move apart, so prefer neighbours you will stay connected to. The
//! **Connection Time Estimate (CTE)** metric is the inverse of the heading
//! difference between two nodes — under road-constrained motion, similar
//! headings predict long-lived links (Table 5.1: median link duration 66 s
//! for headings within 10°, roughly halving per 10° bucket, versus 16 s
//! over all links).
//!
//! The paper evaluated CTE on taxi GPS traces map-matched to a real road
//! network — proprietary data we cannot ship. The substitute (the
//! `table_5_1` row of EXPERIMENTS.md's battery index): a synthetic road
//! network of straight chords with random orientations through an
//! urban-scale region ([`roads`]), vehicles
//! shuttling along them at urban speeds ([`mobility`]), and 100 m
//! proximity links sampled at 1 Hz ([`links`]) — the same kinematics that
//! generate the Table 5.1 structure (relative speed between two vehicles
//! at angle Δθ scales as `sin(Δθ/2)`, so link duration scales as its
//! inverse). Route construction and the stability comparison live in
//! [`routing`].

pub mod links;
pub mod mobility;
pub mod roads;
pub mod routing;

pub use links::{LinkRecord, LinkTracker, LINK_RANGE_M};
pub use mobility::{Fleet, VehicleState};
pub use roads::{Road, RoadNetwork};
pub use routing::{cte, route_stability_experiment, RouteStrategy};
