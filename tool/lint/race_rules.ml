(* fosc-race rules R6–R9 (DESIGN.md §15).

   All four rules run over typedtrees loaded by Cmt_load and scoped by
   Callgraph's parallel set P:

   R6  pool-reachable code must not touch unguarded module-level
       mutable state — a mutable global needs [@fosc.guarded]/
       [@fosc.unguarded] (reviewed) or an Atomic/Mutex/DLS discipline.
   R7  every [Mutex.lock l] must provably release [l] on all paths:
       either the next statement is a [Fun.protect] whose [~finally]
       unlocks, or the critical section is a straight line of
       whitelisted non-raising operations ending in [Mutex.unlock l].
       Checked on ALL analyzed code, parallel or not — a leaked lock
       poisons whoever contends next.  Waiver: [@fosc.lock_ok].
   R8  pool-reachable code must not [Lazy.force] a shared lazy: the
       first force racing across domains raises [Lazy.RacyLazy].
       Waiver: [@fosc.forced_before_parallel] on the lazy's binding,
       on the record field it lives in, or on the force expression —
       asserting the submitting domain forces it first.
   R9  values read from per-domain scratch ([Domain.DLS.get] or an
       engine's [Util.Per_domain.get] slot) must not escape the domain:
       no stores into non-DLS shared structures and no returning
       scratch from a pool-reachable function.  Waiver:
       [@fosc.dls_ok] on the escaping expression (a documented
       borrow). *)

module SSet = Set.Make (String)

type finding = { path : string; line : int; col : int; rule : string; msg : string }

let finding path (loc : Location.t) rule msg =
  {
    path;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    rule;
    msg;
  }

let has_attr = Callgraph.has_attr
let head_key = Callgraph.head_key

let iter_expr_subtrees root f =
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    f e;
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root

(* ------------------------------------------------------------------ R6 *)

let check_r6 (cg : Callgraph.t) =
  let out = ref [] in
  Callgraph.iter_parallel cg (fun b ->
      iter_expr_subtrees b.expr (fun e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              match
                Callgraph.resolve cg.bindings ~encl:b.encl ~unitmod:b.unitmod p
              with
              | Some k when k <> b.key -> (
                  match Hashtbl.find_opt cg.bindings k with
                  | Some { mutability = Callgraph.Unguarded; source; _ } ->
                      out :=
                        finding b.source e.exp_loc "R6"
                          (Printf.sprintf
                             "pool-reachable code reads module-level mutable \
                              state %s (%s) with no guard; use Atomic, a \
                              mutex + [@fosc.guarded], Domain.DLS, or \
                              document with [@fosc.unguarded \"reason\"]"
                             k source)
                        :: !out
                  | _ -> ())
              | _ -> ())
          | _ -> ()));
  !out

(* ------------------------------------------------------------------ R7 *)

(* Syntactic identity of a lock expression: enough to tell [t.lock]
   from [t.submit_lock] and to pair nested sections independently. *)
let rec lock_repr (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> String.concat "." (Cmt_load.norm_components p)
  | Texp_field (e', _, lbl) -> lock_repr e' ^ "." ^ lbl.lbl_name
  | _ -> Printf.sprintf "<expr@%d>" e.exp_loc.loc_start.pos_lnum

let mutex_arg key (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, [ (Asttypes.Nolabel, Some a) ]) when head_key f = Some key ->
      Some a
  | _ -> None

let is_unlock lockstr e =
  match mutex_arg "Mutex.unlock" e with
  | Some a -> lock_repr a = lockstr
  | None -> false

let contains_unlock root =
  let found = ref false in
  iter_expr_subtrees root (fun e ->
      match e.exp_desc with
      | Texp_apply (f, _) when head_key f = Some "Mutex.unlock" -> found := true
      | _ -> ());
  !found

(* [Fun.protect ~finally:(fun () -> ... Mutex.unlock ...) body]: the
   canonical raise-safe critical section. *)
let is_protect_with_unlock (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, args) when head_key f = Some "Fun.protect" ->
      List.exists
        (fun (lbl, arg) ->
          match (lbl, arg) with
          | Asttypes.Labelled "finally", Some fe -> contains_unlock fe
          | _ -> false)
        args
  | _ -> false

(* Operations allowed in a bare lock/unlock section: nothing here can
   raise on a live, type-correct structure.  Anything outside the list
   (unknown calls, [Queue.pop], [raise], partial matches) forces the
   section over to [Fun.protect]. *)
let safe_calls =
  SSet.of_list
    [
      "Hashtbl.find_opt"; "Hashtbl.mem"; "Hashtbl.length"; "Hashtbl.replace";
      "Hashtbl.remove"; "Hashtbl.reset"; "Hashtbl.add"; "Hashtbl.clear";
      "Queue.push"; "Queue.add"; "Queue.take_opt"; "Queue.peek_opt";
      "Queue.is_empty"; "Queue.length"; "Queue.clear";
      "Stack.push"; "Stack.pop_opt";
      "Atomic.get"; "Atomic.set"; "Atomic.incr"; "Atomic.decr";
      "Atomic.fetch_and_add"; "Atomic.exchange"; "Atomic.compare_and_set";
      "Atomic.make";
      "Condition.wait"; "Condition.signal"; "Condition.broadcast";
      "Mutex.lock"; "Mutex.unlock";
      "DLS.get"; "DLS.set";
      "ref"; "!"; ":="; "not"; "ignore"; "="; "<>"; "<"; ">"; "<="; ">=";
      "=="; "!="; "+"; "-"; "*"; "/"; "min"; "max"; "compare"; "fst"; "snd";
      "&&"; "||"; "succ"; "pred";
      "Float.equal"; "Float.compare"; "Int.equal"; "Int.compare";
      "String.equal"; "String.compare"; "Option.is_some"; "Option.is_none";
    ]

let rec safe (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ | Texp_function _ | Texp_unreachable -> true
  | Texp_construct (_, _, args) -> List.for_all safe args
  | Texp_tuple es -> List.for_all safe es
  | Texp_variant (_, eo) -> ( match eo with Some e -> safe e | None -> true)
  | Texp_field (e', _, _) -> safe e'
  | Texp_setfield (e1, _, _, e2) -> safe e1 && safe e2
  | Texp_record { fields; extended_expression; _ } ->
      (match extended_expression with Some e -> safe e | None -> true)
      && Array.for_all
           (fun (_, def) ->
             match def with
             | Typedtree.Overridden (_, e) -> safe e
             | Typedtree.Kept _ -> true)
           fields
  | Texp_apply (f, args) -> (
      match head_key f with
      | Some k when SSet.mem k safe_calls ->
          List.for_all
            (fun (_, a) -> match a with Some a -> safe a | None -> true)
            args
      | _ -> false)
  | Texp_sequence (a, b) -> safe a && safe b
  | Texp_let (_, vbs, body) ->
      List.for_all (fun (vb : Typedtree.value_binding) -> safe vb.vb_expr) vbs
      && safe body
  | Texp_ifthenelse (c, t, f) -> (
      safe c && safe t && match f with Some f -> safe f | None -> true)
  | Texp_match (s, cases, partial) ->
      partial = Total && safe s
      && List.for_all
           (fun (c : _ Typedtree.case) ->
             (match c.c_guard with Some g -> safe g | None -> true)
             && safe c.c_rhs)
           cases
  | Texp_while (c, b) -> safe c && safe b
  | Texp_for (_, _, lo, hi, _, b) -> safe lo && safe hi && safe b
  | _ -> false

(* Does the continuation after [Mutex.lock l] provably release [l]?
   Either a [Fun.protect] with an unlocking finalizer comes first, or a
   straight line of [safe] statements reaches [Mutex.unlock l]; after
   the unlock anything goes.  Branching sections must pair on every
   branch. *)
let rec paired lockstr (e : Typedtree.expression) =
  is_protect_with_unlock e || is_unlock lockstr e
  ||
  match e.exp_desc with
  | Texp_sequence (a, b) ->
      if is_unlock lockstr a || is_protect_with_unlock a then true
      else safe a && paired lockstr b
  | Texp_let (_, vbs, body) ->
      let vb_ok (vb : Typedtree.value_binding) =
        is_protect_with_unlock vb.vb_expr || safe vb.vb_expr
      in
      List.for_all vb_ok vbs
      && (List.exists
            (fun (vb : Typedtree.value_binding) ->
              is_protect_with_unlock vb.vb_expr)
            vbs
         || paired lockstr body)
  | Texp_ifthenelse (c, t, f) -> (
      safe c && paired lockstr t
      && match f with Some f -> paired lockstr f | None -> false)
  | Texp_match (s, cases, _) ->
      safe s
      && List.for_all
           (fun (c : _ Typedtree.case) ->
             (match c.c_guard with Some g -> safe g | None -> true)
             && paired lockstr c.c_rhs)
           cases
  | _ -> false

let check_r7 (cg : Callgraph.t) =
  let out = ref [] in
  Callgraph.iter_all cg (fun b ->
      if not (has_attr "fosc.lock_ok" b.attrs) then begin
        (* Locks whose release was established via their statement
           context, keyed by source position. *)
        let ok = Hashtbl.create 8 in
        let locks = ref [] in
        iter_expr_subtrees b.expr (fun e ->
            match e.exp_desc with
            | Texp_sequence (a, k) -> (
                match mutex_arg "Mutex.lock" a with
                | Some l when paired (lock_repr l) k ->
                    Hashtbl.replace ok a.Typedtree.exp_loc ()
                | _ -> ())
            | Texp_apply (f, _) when head_key f = Some "Mutex.lock" ->
                if not (has_attr "fosc.lock_ok" e.exp_attributes) then
                  locks := e :: !locks
            | _ -> ());
        List.iter
          (fun (e : Typedtree.expression) ->
            if not (Hashtbl.mem ok e.exp_loc) then
              out :=
                finding b.source e.exp_loc "R7"
                  (Printf.sprintf
                     "Mutex.lock %s is not provably released on all paths; \
                      use Fun.protect ~finally:(fun () -> Mutex.unlock %s), \
                      keep the section to non-raising operations ending in \
                      the unlock, or waive with [@fosc.lock_ok \"reason\"]"
                     (match mutex_arg "Mutex.lock" e with
                     | Some l -> lock_repr l
                     | None -> "<lock>")
                     (match mutex_arg "Mutex.lock" e with
                     | Some l -> lock_repr l
                     | None -> "<lock>"))
                :: !out)
          !locks
      end);
  !out

(* ------------------------------------------------------------------ R8 *)

let fbp = "fosc.forced_before_parallel"

let check_r8 (cg : Callgraph.t) =
  let out = ref [] in
  Callgraph.iter_parallel cg (fun b ->
      iter_expr_subtrees b.expr (fun e ->
          match e.exp_desc with
          | Texp_apply (f, [ (Asttypes.Nolabel, Some a) ])
            when head_key f = Some "Lazy.force" ->
              let waived =
                has_attr fbp e.exp_attributes
                || has_attr fbp a.exp_attributes
                || (match a.exp_desc with
                   | Texp_field (_, _, lbl) -> has_attr fbp lbl.lbl_attributes
                   | _ -> false)
                || (match a.exp_desc with
                   | Texp_ident (p, _, _) -> (
                       match
                         Callgraph.resolve cg.bindings ~encl:b.encl
                           ~unitmod:b.unitmod p
                       with
                       | Some k -> (
                           match Hashtbl.find_opt cg.bindings k with
                           | Some tb -> has_attr fbp tb.attrs
                           | None -> false)
                       | None -> false)
                   | _ -> false)
              in
              if not waived then
                out :=
                  finding b.source e.exp_loc "R8"
                    "Lazy.force reachable from a pool closure: a first-force \
                     race across domains raises Lazy.RacyLazy; force on the \
                     submitting domain first and annotate the lazy with \
                     [@fosc.forced_before_parallel \"reason\"], or replace \
                     it with Util.Once"
                  :: !out
          | _ -> ()));
  !out

(* ------------------------------------------------------------------ R9 *)

let dls_ok = "fosc.dls_ok"

(* Stores into shared structures, by where the stored value sits in the
   argument list: (key, index of the value among Nolabel args). *)
let store_calls =
  [
    ("Hashtbl.replace", 2);
    ("Hashtbl.add", 2);
    ("Queue.push", 0);
    ("Queue.add", 0);
    ("Stack.push", 0);
    (":=", 1);
    ("Array.set", 2);
    ("Array.unsafe_set", 2);
  ]

let rec unwrap_functions (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } -> unwrap_functions c.c_rhs
  | _ -> e

let rec tails (e : Typedtree.expression) acc =
  match e.exp_desc with
  | Texp_let (_, _, b) | Texp_sequence (_, b) -> tails b acc
  | Texp_ifthenelse (_, t, f) -> (
      tails t (match f with Some f -> tails f acc | None -> acc))
  | Texp_match (_, cases, _) ->
      List.fold_left (fun acc (c : _ Typedtree.case) -> tails c.c_rhs acc) acc cases
  | Texp_try (b, cases) ->
      List.fold_left
        (fun acc (c : _ Typedtree.case) -> tails c.c_rhs acc)
        (tails b acc) cases
  | _ -> e :: acc

module IdSet = Set.Make (struct
  type t = Ident.t

  let compare = Ident.compare
end)

let check_r9 (cg : Callgraph.t) =
  let out = ref [] in
  Callgraph.iter_parallel cg (fun b ->
      (* Locals holding this domain's scratch (or projections of it),
         collected on a pre-pass so order of definition vs. use in the
         tree walk doesn't matter. *)
      let derived_ids = ref IdSet.empty in
      let rec derived (e : Typedtree.expression) =
        match e.exp_desc with
        | Texp_apply (f, _)
          when List.mem (head_key f) [ Some "DLS.get"; Some "Per_domain.get" ] ->
            true
        | Texp_ident (Path.Pident id, _, _) -> IdSet.mem id !derived_ids
        | Texp_field (e', _, _) -> derived e'
        | _ -> false
      in
      let changed = ref true in
      while !changed do
        changed := false;
        iter_expr_subtrees b.expr (fun e ->
            match e.exp_desc with
            | Texp_let (_, vbs, _) ->
                List.iter
                  (fun (vb : Typedtree.value_binding) ->
                    match vb.vb_pat.pat_desc with
                    | (Tpat_var (id, _) | Tpat_alias (_, id, _))
                      when derived vb.vb_expr && not (IdSet.mem id !derived_ids)
                      ->
                        derived_ids := IdSet.add id !derived_ids;
                        changed := true
                    | _ -> ())
                  vbs
            | _ -> ())
      done;
      let waived (e : Typedtree.expression) = has_attr dls_ok e.exp_attributes in
      let escape loc what =
        out :=
          finding b.source loc "R9"
            (Printf.sprintf
               "Per-domain scratch %s: scratch escaping its domain is a \
                data race in waiting; copy it (Array.copy/Bytes.copy) or \
                annotate the expression with \
                [@fosc.dls_ok \"reason\"] if this is a documented borrow"
               what)
          :: !out
      in
      (* Stores of derived values into shared structures. *)
      iter_expr_subtrees b.expr (fun e ->
          match e.exp_desc with
          | Texp_setfield (target, _, _, v)
            when derived v && (not (derived target)) && not (waived v) ->
              escape e.exp_loc "stored into a shared record field"
          | Texp_apply (f, args) -> (
              match head_key f with
              | Some k -> (
                  match List.assoc_opt k store_calls with
                  | Some idx -> (
                      let positional =
                        List.filter_map
                          (fun (lbl, a) ->
                            match (lbl, a) with
                            | Asttypes.Nolabel, Some a -> Some a
                            | _ -> None)
                          args
                      in
                      match List.nth_opt positional idx with
                      | Some v when derived v && not (waived v) ->
                          escape e.exp_loc (Printf.sprintf "passed to %s" k)
                      | _ -> ())
                  | None -> ())
              | None -> ())
          | _ -> ());
      (* Derived values returned from the binding itself. *)
      let body = unwrap_functions b.expr in
      if body != b.expr then
        List.iter
          (fun (tail : Typedtree.expression) ->
            if derived tail && not (waived tail) then
              escape tail.exp_loc "returned from a pool-reachable function")
          (tails body []));
  !out

(* --------------------------------------------------------------- all *)

let check (cg : Callgraph.t) =
  let findings = check_r6 cg @ check_r7 cg @ check_r8 cg @ check_r9 cg in
  List.sort
    (fun a b ->
      match compare a.path b.path with
      | 0 -> (
          match compare a.line b.line with
          | 0 -> ( match compare a.col b.col with 0 -> compare a.rule b.rule | c -> c)
          | c -> c)
      | c -> c)
    findings
