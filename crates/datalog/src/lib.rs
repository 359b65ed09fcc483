#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # trustmap-datalog
//!
//! A from-scratch engine for **normal logic programs with negation** under
//! the stable model semantics — the substitute for the DLV system that the
//! paper uses as its baseline (Section 2.3, Section 5, Appendix B.2/B.4).
//!
//! Feature set:
//!
//! * a parser for the DLV-style syntax the paper prints
//!   (`poss(x,X) :- poss(z1,X), not conf(x,z1,X), Y != X.`);
//! * safety checking and join-based grounding (rules are instantiated only
//!   against derivable atoms, not the full Herbrand base);
//! * least models of definite programs (counting worklist propagation);
//! * the **well-founded model** via the alternating fixpoint;
//! * **stable model enumeration** by DPLL-style branching over the negated
//!   atoms left undefined by the well-founded model, with bound-based
//!   propagation — the classical algorithm family DLV belongs to. The
//!   number of stable models of an oscillator network is `2^k`, so brave /
//!   cautious reasoning over these programs is exponential in network size,
//!   which is exactly the scaling behaviour the paper measures (Figure 5).
//! * **brave** and **cautious** consequences (possible / certain tuples).
//!
//! ```
//! use trustmap_datalog::{parse_program, solver::StableSolver};
//!
//! // Example B.1 from the paper.
//! let program = parse_program(
//!     "poss(z1,v).\n\
//!      poss(z2,w).\n\
//!      poss(x,X) :- poss(z2,X).\n\
//!      conf(x,z1,X) :- poss(z1,X), poss(x,Y), Y != X.\n\
//!      poss(x,X) :- poss(z1,X), not conf(x,z1,X).",
//! )
//! .unwrap();
//! let ground = program.ground();
//! let mut solver = StableSolver::new(&ground);
//! let models = solver.enumerate(None);
//! assert_eq!(models.len(), 1);
//! // x follows its preferred parent z2: poss(x,w) is brave-true.
//! let brave = solver.brave(None);
//! assert!(brave.contains("poss(x,w)"));
//! assert!(!brave.contains("poss(x,v)"));
//! ```

pub mod ast;
pub mod ground;
pub mod parser;
pub mod solver;

#[cfg(test)]
mod proptests;

pub use ast::{Atom, Program, Rule, Term};
pub use ground::{GroundProgram, GroundRule};
pub use parser::{parse_program, ParseError};
pub use solver::{StableSolver, Truth};
