"""Word algebra, derived conic webs and numerics for hyperlogarithms."""
