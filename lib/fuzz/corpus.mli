(** The fuzzer's corpus: interesting inputs, as terms.

    Entries carry a {!mode} saying which differential harness a term is
    meant for (pure int / pure list / any pure / IO / concurrent IO) and
    round-trip through [.impexn] files — surface syntax prefixed with
    [--] comment headers, so the committed corpus is both replayable and
    readable:

    {v
    -- impexn fuzz corpus
    -- mode: io
    putInt 3 >>= \u -> return 7
    v}

    The built-in {!dictionary} seeds every campaign: the paper's running
    examples, one instance of every transformation rule in
    {!Transform.Rules} (claimed-[Invalid] rules ride in with their
    witnessing instances, so the metamorphic layer's non-law witnesses
    are found deterministically), and IO/concurrency programs shaped to
    reach each flight-recorder event kind — pause/resume, bracket
    acquire/release, masking, oracle picks, forks. *)

type mode = M_int | M_list | M_any | M_io | M_conc

val mode_name : mode -> string
val mode_of_string : string -> mode option

type entry = {
  name : string;
  mode : mode;
  expr : Lang.Syntax.expr;  (** Open over the Prelude (wrap to run). *)
}

val dictionary : unit -> entry list

val to_text : entry -> string
val of_text : name:string -> string -> (entry, string) result

val save : dir:string -> entry -> unit
(** Write [dir/<name>.impexn] (creates [dir] if needed). *)

val load_dir : string -> entry list * (string * string) list
(** All [*.impexn] files under the directory (sorted), parsed; second
    component is the unparsable files with their errors. A missing
    directory is an empty corpus. *)

val pure : entry list -> entry list
(** The entries for the pure harness: modes [int], [list] and [any]. *)

val find_upward : string -> (string, string list) result
(** [find_upward rel]: [rel] in the running executable's directory or
    its nearest ancestor that has one, so a binary built under the
    repository's [_build] finds a committed file wherever it is started.
    [Error tried] lists every path looked at. *)

val find_dir : unit -> (string, string list) result
(** The committed corpus: [find_upward "fuzz/corpus"]. *)
