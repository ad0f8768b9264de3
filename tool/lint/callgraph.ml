(* The cross-file map fosc-race's rules consume.

   Pass 1 harvests every module-level value binding from every loaded
   unit into a table keyed by "Mod.name" (the same last-two-components
   normalization Cmt_load applies to references, so binding keys and
   reference keys meet in the middle).  Pass 2 walks each binding's
   typedtree for (a) its outgoing references, (b) parallel entry points
   — applications of [Util.Pool.map]/[map_array]/[init] — and (c)
   whether the binding itself is
   module-level mutable state and how it is guarded.

   The parallel set P is then the closure of the pool-site-enclosing
   bindings under "references a known binding": everything a pool
   closure could transitively invoke.  This over-approximates in two
   directions, both documented in DESIGN.md §15:
   - the whole enclosing binding joins P, not just the closure argument
     (code before/after the submission runs on the submitting domain
     but is still checked);
   - a closure bound to a local and passed by name contributes the
     enclosing binding's full reference set rather than its own.
   Both err toward flagging, never toward silence, except that a
   closure received as a function parameter from outside the analyzed
   units is invisible (the documented false-negative edge). *)

module SSet = Set.Make (String)

type mutability = Not_mutable | Guarded | Unguarded

type binding = {
  key : string;
  source : string;  (* workspace-relative path of the defining unit *)
  loc : Location.t;
  attrs : Parsetree.attributes;
  expr : Typedtree.expression;
  encl : string;  (* innermost enclosing module name *)
  unitmod : string;  (* demangled unit module name *)
  mutability : mutability;
  mutable refs : SSet.t;
  mutable has_pool_site : bool;
}

type t = {
  bindings : (string, binding) Hashtbl.t;
  order : string list;  (* binding keys in deterministic harvest order *)
  parallel : SSet.t;
}

(* ------------------------------------------------------------ helpers *)

let has_attr name (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

let head_path (f : Typedtree.expression) =
  match f.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

let head_key f = Option.map Cmt_load.key_of_path (head_path f)

let pool_keys = [ "Pool.map"; "Pool.map_array"; "Pool.init" ]

(* Module-level mutable-state constructors.  [Atomic.make],
   [Mutex.create], [Condition.create] and [Domain.DLS.new_key] are
   deliberately absent: those are the guards, not the hazards.  [lazy]
   is also absent — R8 owns shared lazies. *)
let mutable_makers =
  SSet.of_list
    [
      "ref";
      "Hashtbl.create";
      "Queue.create";
      "Stack.create";
      "Buffer.create";
      "Array.make";
      "Array.create_float";
      "Array.init";
      "Bytes.create";
      "Bytes.make";
    ]

let rec classify_mutability attrs (e : Typedtree.expression) =
  let guarded () =
    if has_attr "fosc.guarded" attrs || has_attr "fosc.unguarded" attrs then
      Guarded
    else Unguarded
  in
  match e.exp_desc with
  | Texp_apply (f, _) -> (
      match head_key f with
      | Some k when SSet.mem k mutable_makers -> guarded ()
      | _ -> Not_mutable)
  | Texp_array _ -> guarded ()
  | Texp_record { fields; _ } ->
      if
        Array.exists
          (fun ((ld : Types.label_description), _) ->
            ld.lbl_mut = Asttypes.Mutable)
          fields
      then guarded ()
      else Not_mutable
  | Texp_let (_, _, body) -> classify_mutability attrs body
  | _ -> Not_mutable

(* Resolve a reference path to a known binding key.  Qualified paths
   normalize directly; bare idents (same-unit references) are tried
   against the innermost enclosing module, then the unit module. *)
let resolve known ~encl ~unitmod (p : Path.t) =
  match p with
  | Path.Pident id ->
      let n = Ident.name id in
      let c1 = encl ^ "." ^ n in
      let c2 = unitmod ^ "." ^ n in
      if Hashtbl.mem known c1 then Some c1
      else if Hashtbl.mem known c2 then Some c2
      else None
  | _ ->
      let k = Cmt_load.key_of_path p in
      if Hashtbl.mem known k then Some k else None

(* ------------------------------------------------------------ pass 1 *)

let harvest_unit (u : Cmt_load.unit_info) emit =
  let anon = ref 0 in
  let rec structure mods (str : Typedtree.structure) =
    List.iter (item mods) str.str_items
  and item mods (si : Typedtree.structure_item) =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let encl = match mods with m :: _ -> m | [] -> u.modname in
            let name =
              (* [let x : t = e] elaborates to an alias pattern, not a
                 plain var — accept both spellings. *)
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Ident.name id
              | _ ->
                  incr anon;
                  Printf.sprintf "(anon-%d)" !anon
            in
            emit
              {
                key = encl ^ "." ^ name;
                source = u.source;
                loc = vb.vb_loc;
                attrs = vb.vb_attributes;
                expr = vb.vb_expr;
                encl;
                unitmod = u.modname;
                mutability = classify_mutability vb.vb_attributes vb.vb_expr;
                refs = SSet.empty;
                has_pool_site = false;
              })
          vbs
    | Tstr_eval (e, attrs) ->
        incr anon;
        let encl = match mods with m :: _ -> m | [] -> u.modname in
        emit
          {
            key = Printf.sprintf "%s.(eval-%d)" encl !anon;
            source = u.source;
            loc = si.str_loc;
            attrs;
            expr = e;
            encl;
            unitmod = u.modname;
            mutability = Not_mutable;
            refs = SSet.empty;
            has_pool_site = false;
          }
    | Tstr_module mb -> module_binding mods mb
    | Tstr_recmodule mbs -> List.iter (module_binding mods) mbs
    | _ -> ()
  and module_binding mods (mb : Typedtree.module_binding) =
    let name =
      match mb.mb_id with
      | Some id -> Ident.name id
      | None -> "_"
    in
    module_expr (name :: mods) mb.mb_expr
  and module_expr mods (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> structure mods str
    | Tmod_constraint (me', _, _, _) -> module_expr mods me'
    | Tmod_functor (_, me') -> module_expr mods me'
    | _ -> ()
  in
  structure [] u.structure

(* ------------------------------------------------------------ pass 2 *)

(* Collect outgoing references and pool sites for one binding. *)
let analyze_binding known (b : binding) =
  let refs = ref SSet.empty in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match resolve known ~encl:b.encl ~unitmod:b.unitmod p with
        | Some k -> refs := SSet.add k !refs
        | None -> ())
    | Texp_apply (f, _) -> (
        match head_key f with
        | Some k when List.mem k pool_keys -> b.has_pool_site <- true
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it b.expr;
  b.refs <- SSet.remove b.key !refs

(* ------------------------------------------------------------- build *)

let build (units : Cmt_load.unit_info list) =
  let bindings = Hashtbl.create 512 in
  let order = ref [] in
  List.iter
    (fun u ->
      harvest_unit u (fun b ->
          (* Last harvest wins on key collisions (same-named nested
             modules); collisions only widen P, never shrink it. *)
          Hashtbl.replace bindings b.key b;
          order := b.key :: !order))
    units;
  let order = List.rev !order in
  List.iter (fun k -> analyze_binding bindings (Hashtbl.find bindings k)) order;
  (* P: closure of pool-site-enclosing bindings under "references". *)
  let parallel = ref SSet.empty in
  let queue = Queue.create () in
  List.iter
    (fun k ->
      let b = Hashtbl.find bindings k in
      if b.has_pool_site then Queue.push k queue)
    order;
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    if not (SSet.mem k !parallel) then begin
      parallel := SSet.add k !parallel;
      match Hashtbl.find_opt bindings k with
      | Some b -> SSet.iter (fun r -> Queue.push r queue) b.refs
      | None -> ()
    end
  done;
  { bindings; order; parallel = !parallel }

let iter_parallel t f =
  List.iter
    (fun k -> if SSet.mem k t.parallel then f (Hashtbl.find t.bindings k))
    t.order

let iter_all t f = List.iter (fun k -> f (Hashtbl.find t.bindings k)) t.order
