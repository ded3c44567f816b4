(* The legacy modular runner: the tree-walking {!Legacy_wellformed}
   checker per module, with the cross-module rules of
   {!Argus_gsn.Modular}.  The shipped {!Argus_ir.Fused.check_modular}
   runs the fused pass per module instead and is held byte-identical to
   this (test/ir). *)

let check ?pool t =
  Argus_gsn.Modular.check_with ?pool ~wf:Legacy_wellformed.check t
