val cnf_of_prop : Argus_logic.Prop.t -> Argus_logic.Sat.cnf
(** Direct conversion via NNF and distribution.  Semantics-preserving
    but worst-case exponential; the test oracle for
    {!Argus_logic.Sat.tseitin}, and the way to build a CNF whose
    variables can appear with one polarity only (pure literals, which
    a Tseitin CNF never has). *)
