//! Resolution-only stand-in: no target built by `nsbench` compiles against this crate.
