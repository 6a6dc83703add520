(* The bundled workloads, by the name the command line and job parameters
   use for them. *)

type entry = {
  key : string;
  doc : string;
  default_np : int;
  build : unit -> Mpi.Mpi_intf.program;
}

let skeleton_entry shape doc =
  {
    key = String.lowercase_ascii shape.Skeleton.name;
    doc;
    default_np = 16;
    build = (fun () -> Skeleton.program shape);
  }

let all =
  [
    {
      key = "fig3";
      doc = "paper Fig. 3: wildcard race, bug on the alternate match";
      default_np = 3;
      build = (fun () -> Patterns.fig3);
    };
    {
      key = "fig4";
      doc = "paper Fig. 4: cross-coupled wildcards (Lamport imprecision)";
      default_np = 4;
      build = (fun () -> Patterns.fig4);
    };
    {
      key = "fig10";
      doc = "paper Fig. 10: clock escape before wait (monitor alert)";
      default_np = 3;
      build = (fun () -> Patterns.fig10);
    };
    {
      key = "deadlock";
      doc = "deterministic head-to-head deadlock";
      default_np = 2;
      build = (fun () -> Patterns.head_to_head);
    };
    {
      key = "matmult";
      doc = "master/slave matrix multiplication (Figs. 6, 8)";
      default_np = 5;
      build =
        (fun () ->
          Matmult.program
            ~params:{ Matmult.default_params with n = 8; rows_per_task = 2 }
            ());
    };
    {
      key = "samplesort";
      doc = "parallel sample sort (deterministic collective pipeline)";
      default_np = 6;
      build = (fun () -> Samplesort.program ());
    };
    {
      key = "adlb";
      doc = "mini-ADLB work-sharing library (Fig. 9)";
      default_np = 6;
      build = (fun () -> Adlb.program ());
    };
    {
      key = "parmetis";
      doc = "ParMETIS-3.1 communication skeleton, 1% scale (Fig. 5, Tables I-II)";
      default_np = 8;
      build =
        (fun () ->
          Parmetis.program
            ~params:{ Parmetis.default_params with scale = 0.01 }
            ());
    };
  ]
  @ List.map
      (fun s -> skeleton_entry s ("NAS-PB skeleton " ^ s.Skeleton.name))
      Nas.all
  @ List.map
      (fun s -> skeleton_entry s ("SpecMPI skeleton " ^ s.Skeleton.name))
      Specmpi.all

let find key =
  List.find_opt (fun e -> String.equal e.key (String.lowercase_ascii key)) all
