package perfbench

/** Minimal JSON rendering for the result file (no dependency needed). */
object Json {
  def render(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case s: Iterable[_]       => s.map(render).mkString("[", ", ", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
