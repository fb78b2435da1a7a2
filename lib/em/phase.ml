let with_label ctx label f =
  let s = ctx.Ctx.stats in
  Stats.push_phase s label;
  match f () with
  | result ->
      Stats.pop_phase s;
      result
  | exception e ->
      Stats.pop_phase s;
      raise e
