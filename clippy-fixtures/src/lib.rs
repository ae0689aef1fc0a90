//! Fixtures for the rules `clippy.toml` and `cargo clippy-lib` took over
//! from geospan-analyze, one module per retired rule id. Every line
//! the lint must flag ends in `//~` and the lint names it expects;
//! `check.py` runs `cargo clippy-lib` here and requires exactly those
//! diagnostics. Lines without a marker are the rules' negative
//! fixtures, and must stay clean.
//!
//! D05 (parallel float reduction) cannot be written at all: the rayon
//! stub has no `sum`, `fold` or `reduce`. Its fixture is a
//! `compile_fail` doctest in `geospan-graph`.

pub mod a00;
pub mod d01;
pub mod d02;
pub mod d03;
pub mod d04;
pub mod d07;
pub mod d09;
pub mod d11;
