module Summary = Xpiler_obs.Summary

let pct part whole = if whole > 0.0 then 100.0 *. part /. whole else 0.0

let stage_table (s : Summary.t) =
  if s.Summary.stages = [] then None
  else
    Some
      (Report.make ~title:"Stage breakdown (modelled seconds)"
         ~cols:[ "seconds"; "share" ]
         (List.map
            (fun (name, secs) ->
              (name, [ Report.Num secs; Report.Pct (pct secs s.Summary.total_seconds) ]))
            s.Summary.stages
         @ [ ("total", [ Report.Num s.Summary.total_seconds; Report.Pct 100.0 ]) ]))

let span_table (s : Summary.t) =
  if s.Summary.spans = [] then None
  else
    Some
      (Report.make ~title:"Spans" ~cols:[ "count"; "total s" ]
         (List.map
            (fun (name, n, dur) -> (name, [ Report.Count n; Report.Num dur ]))
            s.Summary.spans))

let counter_table (s : Summary.t) =
  if s.Summary.counters = [] then None
  else
    Some
      (Report.make ~title:"Counters" ~cols:[ "total" ]
         (List.map (fun (name, n) -> (name, [ Report.Count n ])) s.Summary.counters))

let histogram_table (s : Summary.t) =
  if s.Summary.histograms = [] then None
  else
    Some
      (Report.make ~title:"Histograms" ~cols:[ "n"; "min"; "mean"; "max" ]
         (List.map
            (fun (name, h) ->
              ( name,
                [ Report.Count h.Summary.n; Report.Num h.Summary.min;
                  Report.Num h.Summary.mean; Report.Num h.Summary.max ] ))
            s.Summary.histograms))

let tables s =
  List.filter_map
    (fun f -> f s)
    [ stage_table; span_table; counter_table; histogram_table ]

let render s = String.concat "\n" (List.map Report.render (tables s))

let render_events events = render (Summary.of_events events)

(* ---- registry snapshots -------------------------------------------------- *)

module Metrics = Xpiler_obs.Metrics
module Prof = Xpiler_obs.Prof

let sample_label (s : Metrics.sample) =
  match s.Metrics.labels with
  | [] -> s.Metrics.name
  | ls ->
    s.Metrics.name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) ^ "}"

let metrics_tables samples =
  let counters =
    List.filter_map
      (fun s ->
        match s.Metrics.value with
        | Metrics.Vcounter n -> Some (sample_label s, [ Report.Count n ])
        | _ -> None)
      samples
  in
  let gauges =
    List.filter_map
      (fun s ->
        match s.Metrics.value with
        | Metrics.Vgauge v -> Some (sample_label s, [ Report.Num v ])
        | _ -> None)
      samples
  in
  let hists =
    List.filter_map
      (fun s ->
        match s.Metrics.value with
        | Metrics.Vhist h ->
          let mean = if h.Metrics.count > 0 then h.Metrics.sum /. float_of_int h.Metrics.count else 0.0 in
          Some
            ( sample_label s,
              [ Report.Count h.Metrics.count; Report.Num h.Metrics.hmin; Report.Num mean;
                Report.Num (Metrics.hist_quantile h 0.5); Report.Num (Metrics.hist_quantile h 0.99);
                Report.Num h.Metrics.hmax ] )
        | _ -> None)
      samples
  in
  List.filter_map
    (fun (title, cols, rows) -> if rows = [] then None else Some (Report.make ~title ~cols rows))
    [ ("Metric counters", [ "total" ], counters);
      ("Metric gauges", [ "value" ], gauges);
      ("Metric histograms", [ "n"; "min"; "mean"; "p50"; "p99"; "max" ], hists) ]

let render_metrics samples = String.concat "\n" (List.map Report.render (metrics_tables samples))

(* ---- profiler reports ---------------------------------------------------- *)

(* a modelled second costs microseconds of wall time, so the exchange rate
   is shown in those units ([Report.Ratio] would print 0.00x on every row) *)
let wall_per_virtual wall virt = Report.Num (if virt > 0.0 then wall *. 1e6 /. virt else 0.0)

let prof_tables (r : Prof.report) =
  let stage_rows =
    List.map
      (fun (s : Prof.stage_row) ->
        ( s.Prof.stage,
          [ Report.Count s.Prof.charges; Report.Num s.Prof.virtual_s; Report.Num s.Prof.wall_s;
            wall_per_virtual s.Prof.wall_s s.Prof.virtual_s ] ))
      r.Prof.stage_rows
  in
  let stage_rows =
    if stage_rows = [] then []
    else begin
      let tv = List.fold_left (fun a (s : Prof.stage_row) -> a +. s.Prof.virtual_s) 0.0 r.Prof.stage_rows in
      let tw = List.fold_left (fun a (s : Prof.stage_row) -> a +. s.Prof.wall_s) 0.0 r.Prof.stage_rows in
      let tc = List.fold_left (fun a (s : Prof.stage_row) -> a + s.Prof.charges) 0 r.Prof.stage_rows in
      stage_rows
      @ [ ( "total",
            [ Report.Count tc; Report.Num tv; Report.Num tw; wall_per_virtual tw tv ] ) ]
    end
  in
  let span_rows =
    List.map
      (fun (s : Prof.span_row) ->
        ( s.Prof.span,
          [ Report.Count s.Prof.count; Report.Num s.Prof.wall_s;
            Report.Num (s.Prof.alloc_words /. 1e6); Report.Count s.Prof.majors ] ))
      r.Prof.span_rows
  in
  List.filter_map
    (fun (title, cols, rows) -> if rows = [] then None else Some (Report.make ~title ~cols rows))
    [ ("Wall vs virtual time per stage", [ "charges"; "virtual s"; "wall s"; "wall us/virtual s" ], stage_rows);
      ("Profiled spans (wall clock)", [ "count"; "wall s"; "alloc Mw"; "majors" ], span_rows) ]

let render_prof r = String.concat "\n" (List.map Report.render (prof_tables r))
