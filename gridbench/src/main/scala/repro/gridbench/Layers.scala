package repro.gridbench

/** Maps a call stack to the program layer that issued the work.
  *
  * A stack is attributed by its innermost `repro.` frame: the first rule
  * below whose pattern matches that frame's `class.method` names the layer.
  * Rules are ordered, so method-specific rules for `Experiment` come before
  * the package-wide ones. Scala closures are compiled to methods named
  * `$anonfun$<enclosing method>$<n>`, which is why e.g. the cleaned-test
  * `count()` inside `runCell`'s per-method closure lands in `clean` while
  * the train/test `count()` in `runCell`'s own body lands in `core.splits`.
  *
  * The benchmark's own `TopLevel` calls are listed too: query results are
  * collected there, after `Queries.run` has returned its DataFrame.
  */
object Layers {

  val All: Seq[String] = Seq(
    "data", "core.splits", "clean", "ml.features", "ml.models",
    "ml.evaluate", "core.relations", "core.queries", "core.runner")

  val Models: Seq[String] = repro.core.RunConfig.AllModels

  final case class Rule(pattern: String, layer: String, model: Option[String] = None) {
    private val regex = pattern.r
    def matches(frame: String): Boolean = regex.findFirstIn(frame).isDefined
  }

  private def model(adapter: String, extra: String, name: String): Rule =
    Rule(s"""^repro\\.ml\\.(Models\\$$$adapter\\$$$extra)""", "ml.models", Some(name))

  val Table: Seq[Rule] = Seq(
    Rule("""^repro\.core\.Experiment\$\.\$anonfun\$runCell\$""", "clean"),
    Rule("""^repro\.core\.Experiment\$\.runCell$""", "core.splits"),
    Rule("""^repro\.core\.Experiment\$\.(\$anonfun\$)?buildArm""", "ml.features"),
    Rule("""^repro\.core\.Experiment\$\.(\$anonfun\$)?fitModel""", "ml.models"),
    Rule("""^repro\.core\.Experiment\$\.(\$anonfun\$)?evalOn""", "ml.evaluate"),
    Rule("""^repro\.core\.Splits\$""", "core.splits"),
    Rule("""^repro\.data\.""", "data"),
    Rule("""^repro\.clean\.""", "clean"),
    Rule("""^repro\.ml\.Features\$""", "ml.features"),
    Rule("""^repro\.ml\.Evaluate\$""", "ml.evaluate"),
    model("AdaBoostAdapter", "|AdaBoost\\$", "adaboost"),
    model("DecisionTreeAdapter", "", "decision_tree"),
    model("KNNAdapter", "|KNN\\$", "knn"),
    model("LogisticRegressionAdapter", "", "logistic_regression"),
    model("NaiveBayesAdapter", "|GaussianNB\\$", "naive_bayes"),
    model("RandomForestAdapter", "", "random_forest"),
    model("XGBoostAdapter", "", "xgboost"),
    Rule("""^repro\.ml\.""", "ml.models"),
    Rule("""^repro\.core\.(Relations|Specs)\$|^repro\.stats\.""", "core.relations"),
    Rule("""^repro\.core\.Queries\$""", "core.queries"),
    Rule("""^repro\.core\.Runner\$""", "core.runner"),
    Rule("""^repro\.gridbench\.TopLevel\$\.(\$anonfun\$)?generate""", "data"),
    Rule("""^repro\.gridbench\.TopLevel\$\.(\$anonfun\$)?runGrid""", "core.runner"),
    Rule("""^repro\.gridbench\.TopLevel\$\.(\$anonfun\$)?relations""", "core.relations"),
    Rule("""^repro\.gridbench\.TopLevel\$\.(\$anonfun\$)?queries""", "core.queries"))

  /** `class.method` of one stack-trace line, e.g.
    * `at app//repro.core.Splits$.trainTest(Splits.scala:14)` gives
    * `repro.core.Splits$.trainTest`. A class-loader or module prefix
    * (`app//`, `java.base/`) and a leading `at ` are dropped.
    */
  def frameOf(line: String): String = {
    val s = line.trim.stripPrefix("at ")
    val paren = s.indexOf('(')
    val head = if (paren < 0) s else s.substring(0, paren)
    head.substring(head.lastIndexOf('/') + 1)
  }

  /** The rule for the innermost `repro.` frame, innermost frame first. */
  def attribute(frames: Iterator[String]): Option[Rule] =
    frames.find(_.startsWith("repro.")).flatMap(f => Table.find(_.matches(f)))

  /** Attribute a Spark call-site long form (one frame per line). */
  def ofCallSite(callSite: String): Option[Rule] =
    if (callSite == null) None
    else attribute(callSite.linesIterator.map(frameOf))

  /** Attribute a live thread's stack. */
  def ofStack(stack: Array[StackTraceElement]): Option[Rule] =
    attribute(stack.iterator.map(e => s"${e.getClassName}.${e.getMethodName}"))
}
