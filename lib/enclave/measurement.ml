let measure (layout : Layout.t) ~consumer_code =
  let ctx = Deflection_crypto.Sha256.init () in
  let field v = Deflection_crypto.Sha256.update_string ctx (Printf.sprintf "%d;" v) in
  Deflection_crypto.Sha256.update_string ctx "DEFLECTION-MRENCLAVE-v1:";
  field layout.Layout.base;
  field layout.ssa_lo;
  field layout.tcs_lo;
  field layout.branch_lo;
  field layout.ss_lo;
  field layout.consumer_lo;
  field layout.code_lo;
  field layout.data_lo;
  field layout.stack_lo;
  field layout.limit;
  Deflection_crypto.Sha256.update ctx consumer_code;
  Deflection_crypto.Sha256.finalize ctx
