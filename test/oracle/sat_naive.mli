val solve : Argus_logic.Sat.cnf -> (string * bool) list option
(** The original persistent-map DPLL (unit propagation + pure-literal
    elimination, clause lists rebuilt per decision).  Equivalent to
    {!Argus_logic.Sat.solve} on satisfiability; retained as the
    property-test oracle.  Does not touch the engine counters. *)
